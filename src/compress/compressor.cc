#include "compress/compressor.h"

#include <cmath>

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

Status Compressor::EncodeImpl(const float* range, const Buffer* in,
                              size_t offset, size_t len, float* publish,
                              Buffer* out) {
  PR_CHECK(enabled());
  PR_CHECK(range != nullptr || len == 0);
  EnsureResidual(offset + len);
  Buffer blob;
  PR_RETURN_NOT_OK(codec_->EncodeFeedback(
      range, in, residual_.data() + offset, len, publish, &blob));
  // That Decode(blob) returns exactly what was subtracted from the residual
  // is CodecContractTest's to check; here only the blob's size.
  PR_CHECK_EQ(blob.size() * sizeof(float), codec_->EncodedBytes(len));
  total_in_ += static_cast<double>(len * sizeof(float));
  total_out_ += static_cast<double>(blob.size() * sizeof(float));
  if (bytes_in_ != nullptr) {
    bytes_in_->Increment(static_cast<double>(len * sizeof(float)));
    bytes_out_->Increment(static_cast<double>(blob.size() * sizeof(float)));
    if (total_out_ > 0.0) ratio_->Set(total_in_ / total_out_);
  }
  *out = std::move(blob);
  return Status::OK();
}

Buffer Compressor::EncodeRange(const float* range, size_t offset, size_t len) {
  Buffer blob;
  PR_CHECK(EncodeImpl(range, nullptr, offset, len, nullptr, &blob).ok());
  return blob;
}

Buffer Compressor::EncodeRangePublish(float* range, size_t offset,
                                      size_t len) {
  Buffer blob;
  PR_CHECK(EncodeImpl(range, nullptr, offset, len, range, &blob).ok());
  return blob;
}

Status Compressor::EncodeRangeSum(const float* mine, const Buffer& in,
                                  size_t offset, size_t len, Buffer* out) {
  return EncodeImpl(mine, &in, offset, len, nullptr, out);
}

Status Compressor::Decode(const Buffer& blob, std::vector<float>* out) const {
  PR_CHECK(enabled());
  return codec_->Decode(blob, out);
}

Status Compressor::DecodeInto(const Buffer& blob, float* out,
                              size_t len) const {
  PR_CHECK(enabled());
  return codec_->DecodeInto(blob, out, len, /*accumulate=*/false);
}

Status Compressor::DecodeAddInto(const Buffer& blob, float* acc,
                                 size_t len) const {
  PR_CHECK(enabled());
  return codec_->DecodeInto(blob, acc, len, /*accumulate=*/true);
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
