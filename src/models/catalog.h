#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/enum_names.h"

namespace pr {

class Model;

/// \brief Cost-model card for one of the paper's CNN workloads.
///
/// We do not run convolutions; statistical efficiency comes from a proxy MLP
/// on synthetic data (see DESIGN.md). What the *timing* experiments need from
/// "ResNet-34" etc. is (a) how long one local update takes on the reference
/// device and (b) how much traffic a synchronization moves. Those live here.
///
/// `compute_seconds` (one forward+backward on a batch of 256, reference GPU,
/// unshared), `param_bytes` and `num_tensors` were calibrated jointly with
/// the simulator's alpha-beta communication model against the per-update
/// times in the paper's Table 1; the fit reproduces all three models' AR and
/// P-Reduce per-update times within a few percent (see EXPERIMENTS.md).
/// `num_tensors` matters because ring all-reduce pays its latency term per
/// parameter tensor — this is what makes DenseNet-121 (364 small tensors)
/// slower to synchronize than its 8M parameters suggest.
struct PaperModelInfo {
  std::string name;
  size_t num_params = 0;       ///< trainable parameter count
  size_t num_tensors = 0;      ///< parameter tensors (ring latency multiplier)
  double compute_seconds = 0;  ///< fwd+bwd, batch 256, reference device
  /// Relative compute heaviness of the dataset the paper pairs this model
  /// with (ImageNet crops are ~8x CIFAR crops at these batch sizes).
  double dataset_compute_scale = 1.0;

  size_t param_bytes() const { return num_params * sizeof(float); }
};

/// \brief Looks up a catalog entry by name. Known names: "resnet18",
/// "resnet34", "vgg16", "vgg19", "densenet121". Aborts on unknown names
/// (catalog membership is a static programmer decision, not runtime input).
const PaperModelInfo& LookupPaperModel(const std::string& name);

/// \brief All catalog entries, for enumeration in tests and reports.
const std::vector<PaperModelInfo>& AllPaperModels();

/// \brief The runnable proxy architectures (real gradient math).
///
/// The paper-scale CNNs above enter the *simulator* through the cost model;
/// actual SGD — in both the simulator and the threaded runtime — runs on one
/// of these proxies. Both engines construct their models through
/// MakeProxyModel, so a spec names the same architecture everywhere.
struct ProxyModelSpec {
  enum class Kind {
    kMlp,      ///< fully connected ReLU net (hand backprop)
    kConvNet,  ///< 3x3 conv + dense head (hand backprop)
  };
  Kind kind = Kind::kMlp;
  /// kMlp: hidden layer widths.
  std::vector<size_t> hidden = {32};
  /// kConvNet: filter count; the input dim must be a perfect square
  /// (interpreted as a 1-channel sqrt(dim) x sqrt(dim) image).
  size_t conv_filters = 8;
};

/// Tokens of the `run.model.kind` config key.
inline constexpr EnumName<ProxyModelSpec::Kind> kProxyModelKindNames[] = {
    {ProxyModelSpec::Kind::kMlp, "mlp"},
    {ProxyModelSpec::Kind::kConvNet, "conv"},
};

/// \brief Constructs the proxy model for `spec` on `input_dim` features and
/// `num_classes` classes. Aborts (PR_CHECK) when a ConvNet is requested for
/// a non-square input dim.
std::unique_ptr<Model> MakeProxyModel(const ProxyModelSpec& spec,
                                      size_t input_dim, size_t num_classes);

/// Short display name for a proxy spec ("mlp[32]", "convnet[8]").
std::string ProxyModelName(const ProxyModelSpec& spec);

}  // namespace pr
