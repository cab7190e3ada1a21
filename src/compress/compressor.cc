#include "compress/compressor.h"

#include <cmath>
#include <cstring>

#include "common/check.h"
#include "obs/metric_table.h"

namespace pr {

Compressor::Compressor(CompressionKind kind) : kind_(kind) {
  if (kind != CompressionKind::kNone) codec_ = MakeCodec(kind);
}

void Compressor::AttachMetrics(MetricsShard* metrics) {
  if (metrics == nullptr) return;
  bytes_in_ = metrics->Get(metric::kCompressBytesIn);
  bytes_out_ = metrics->Get(metric::kCompressBytesOut);
  ratio_ = metrics->Get(metric::kCompressRatio);
}

void Compressor::EnsureResidual(size_t end) {
  if (residual_.size() < end) residual_.resize(end, 0.0f);
}

Buffer Compressor::EncodeImpl(const float* range, size_t offset, size_t len,
                              float* publish) {
  PR_CHECK(enabled());
  PR_CHECK(range != nullptr || len == 0);
  EnsureResidual(offset + len);
  scratch_.resize(len);
  float* res = residual_.data() + offset;
  for (size_t i = 0; i < len; ++i) scratch_[i] = range[i] + res[i];
  Buffer blob = codec_->Encode(scratch_.data(), len);
  Status s = codec_->Decode(blob, &decoded_);
  PR_CHECK(s.ok()) << "codec failed to decode its own blob: " << s.message();
  PR_CHECK_EQ(decoded_.size(), len);
  for (size_t i = 0; i < len; ++i) res[i] = scratch_[i] - decoded_[i];
  if (publish != nullptr && len > 0) {
    std::memcpy(publish, decoded_.data(), len * sizeof(float));
  }
  total_in_ += static_cast<double>(len * sizeof(float));
  total_out_ += static_cast<double>(blob.size() * sizeof(float));
  if (bytes_in_ != nullptr) {
    bytes_in_->Increment(static_cast<double>(len * sizeof(float)));
    bytes_out_->Increment(static_cast<double>(blob.size() * sizeof(float)));
    if (total_out_ > 0.0) ratio_->Set(total_in_ / total_out_);
  }
  return blob;
}

Buffer Compressor::EncodeRange(const float* range, size_t offset, size_t len) {
  return EncodeImpl(range, offset, len, nullptr);
}

Buffer Compressor::EncodeRangePublish(float* range, size_t offset,
                                      size_t len) {
  return EncodeImpl(range, offset, len, range);
}

Status Compressor::Decode(const Buffer& blob, std::vector<float>* out) const {
  PR_CHECK(enabled());
  return codec_->Decode(blob, out);
}

Status Compressor::DecodeInto(const Buffer& blob, float* out,
                              size_t len) const {
  PR_CHECK(enabled());
  std::vector<float> tmp;
  PR_RETURN_NOT_OK(codec_->Decode(blob, &tmp));
  if (tmp.size() != len) {
    return Status::InvalidArgument("compressed payload: length mismatch");
  }
  if (len > 0) std::memcpy(out, tmp.data(), len * sizeof(float));
  return Status::OK();
}

size_t Compressor::EncodedBytes(size_t n) const {
  return EncodedBlobBytes(kind_, n);
}

double Compressor::ResidualL1() const {
  double sum = 0.0;
  for (float r : residual_) sum += std::abs(r);
  return sum;
}

}  // namespace pr
