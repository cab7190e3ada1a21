#pragma once

#include <cstddef>
#include <vector>

namespace pr {

/// \brief Weighted model averaging: out = sum_j weights[j] * inputs[j], the
/// mathematical core of one partial reduce (Alg. 2 line 7).
///
/// `inputs` are borrowed pointers to the members' parameter vectors, each of
/// length `n`. Used directly by the simulator; the threaded runtime realizes
/// the same computation distributively via GroupWeightedAllReduce.
void WeightedAverage(const std::vector<const float*>& inputs,
                     const std::vector<double>& weights, size_t n,
                     float* out);

/// \brief In-place variant writing the average back into every input vector
/// (all group members leave the reduce with the identical model).
void WeightedAverageInPlace(const std::vector<float*>& models,
                            const std::vector<double>& weights, size_t n);

}  // namespace pr
