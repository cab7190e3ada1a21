#include "strategies/server_core.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/check.h"
#include "obs/metric_table.h"
#include "tensor/ops.h"

namespace pr {

ServerCore::ServerCore(const StrategyOptions& options, int num_workers,
                       std::vector<float> init, const SgdOptions& sgd,
                       Observers observers)
    : kind_(options.kind),
      n_(num_workers),
      observers_(std::move(observers)),
      model_(std::move(init)),
      opt_(model_.size(), sgd),
      active_(num_workers),
      workers_(static_cast<size_t>(num_workers)) {
  PR_CHECK_GE(num_workers, 1);
  PR_CHECK(observers_.metrics != nullptr);
  switch (kind_) {
    case StrategyKind::kPsAsp:
    case StrategyKind::kPsHete:
      break;
    case StrategyKind::kPsBsp:
      round_target_ = n_;
      break;
    case StrategyKind::kPsBackup:
      PR_CHECK_GE(options.backup_workers, 0);
      PR_CHECK_LT(options.backup_workers, n_);
      round_target_ = n_ - options.backup_workers;
      break;
    case StrategyKind::kEagerReduce:
      round_target_ = EagerReduceQuorum(options, n_);
      PR_CHECK_GE(round_target_, 1);
      PR_CHECK_LE(round_target_, n_);
      deposits_.assign(static_cast<size_t>(n_),
                       std::vector<float>(model_.size(), 0.0f));
      break;
    default:
      PR_CHECK(false) << StrategyKindName(kind_) << " has no central server";
  }
  if (synchronous()) round_sum_.assign(model_.size(), 0.0f);
  versions_ = observers_.metrics->Get(metric::kPsVersions);
  wasted_ = observers_.metrics->Get(metric::kPsWastedGradients);
  staleness_ = observers_.metrics->Get(metric::kPsPushStaleness);
}

bool ServerCore::synchronous() const {
  return kind_ != StrategyKind::kPsAsp && kind_ != StrategyKind::kPsHete;
}

bool ServerCore::Superseded(uint64_t pulled) const {
  return kind_ == StrategyKind::kPsBackup && pulled < version_;
}

void ServerCore::Trace(TraceEventKind kind, int worker, int64_t a,
                       int64_t b) const {
  if (observers_.trace == nullptr) return;
  observers_.trace->Record(observers_.now ? observers_.now() : 0.0, kind,
                           worker, a, b);
}

ServerActions ServerCore::Pull(int worker) {
  Worker& w = workers_[static_cast<size_t>(worker)];
  PR_CHECK(w.hold == Hold::kNone ||
           (w.hold == Hold::kModel && Superseded(w.version)))
      << "worker " << worker << " pulled while it holds a live model";
  ServerActions out;
  w.hold = Hold::kWaiting;
  if (!w.in_round) Reply(worker, &out);
  return out;
}

ServerActions ServerCore::Push(int worker, uint64_t pulled, const float* grad,
                               bool last, double lr) {
  Worker& w = workers_[static_cast<size_t>(worker)];
  PR_CHECK(w.hold == Hold::kModel && w.version == pulled)
      << "worker " << worker << " pushed a gradient on version " << pulled
      << " it was not sent";
  PR_CHECK(!closing_ || kind_ == StrategyKind::kEagerReduce)
      << "a BSP or BK round must end before the next push";
  w.hold = Hold::kNone;
  const uint64_t staleness = version_ - pulled;
  const bool dropped = Superseded(pulled);
  staleness_->Observe(static_cast<double>(staleness));
  Trace(TraceEventKind::kPsPush, worker, static_cast<int64_t>(staleness),
        dropped ? 1 : 0);
  if (last) --active_;

  ServerActions out;
  if (!synchronous()) {
    // Each push applies one worker's gradient (BSP applies the mean of N
    // per round), so per-push steps carry 1/N of the base rate. HETE also
    // damps gradients staler than asynchrony itself implies (~N - 1).
    double scale = 1.0 / static_cast<double>(n_);
    if (kind_ == StrategyKind::kPsHete) {
      scale *= ExcessStalenessLrScale(staleness, static_cast<size_t>(n_));
    }
    Step(grad, lr, scale);
  } else if (!dropped) {
    if (kind_ == StrategyKind::kEagerReduce) {
      std::copy(grad, grad + model_.size(),
                deposits_[static_cast<size_t>(worker)].begin());
    } else {
      Axpy(1.0f, grad, round_sum_.data(), round_sum_.size());
    }
    w.in_round = true;  // a worker holding a model is never in the round
    ++round_count_;
  }

  // BSP is lockstep with equal budgets, so every round, the last included,
  // gets all N pushes. BK and ER rounds are partial at the end: departures
  // shrink the pool, so the target is capped by the workers still able to
  // push, or the final rounds would stall.
  const int target = kind_ == StrategyKind::kPsBsp
                         ? n_
                         : std::min(round_target_, std::max(active_, 1));
  if (synchronous() && !closing_ && round_count_ >= target) {
    closing_ = true;
    ServerAction ready;
    ready.kind = ServerAction::Kind::kRoundReady;
    out.push_back(ready);
  }
  return out;
}

ServerActions ServerCore::EndRound(double lr) {
  PR_CHECK(closing_) << "no round is being reduced";
  closing_ = false;
  if (kind_ == StrategyKind::kEagerReduce) {
    // The collective runs over every worker's buffer: this round's fresh
    // deposits plus the stragglers' earlier (stale) ones.
    for (const std::vector<float>& d : deposits_) {
      Axpy(1.0f / static_cast<float>(n_), d.data(), round_sum_.data(),
           round_sum_.size());
    }
  } else {
    Scale(1.0f / static_cast<float>(round_count_), round_sum_.data(),
          round_sum_.size());
  }
  Step(round_sum_.data(), lr, 1.0);
  if (kind_ == StrategyKind::kEagerReduce) {
    Trace(TraceEventKind::kReduceEnd, -1, static_cast<int64_t>(version_));
  }
  std::memset(round_sum_.data(), 0, round_sum_.size() * sizeof(float));
  round_count_ = 0;
  ServerActions out;
  for (size_t i = 0; i < workers_.size(); ++i) {
    Worker& w = workers_[i];
    if (!w.in_round) continue;
    w.in_round = false;
    if (w.hold == Hold::kWaiting) Reply(static_cast<int>(i), &out);
  }
  return out;
}

void ServerCore::Reply(int worker, ServerActions* out) {
  Worker& w = workers_[static_cast<size_t>(worker)];
  w.hold = Hold::kModel;
  w.version = version_;
  Trace(TraceEventKind::kPsPull, worker, static_cast<int64_t>(version_));
  ServerAction a;
  a.worker = worker;
  a.version = version_;
  out->push_back(a);
}

void ServerCore::Step(const float* grad, double lr, double lr_scale) {
  opt_.set_learning_rate(lr);
  opt_.Step(grad, model_.data(), model_.size(), lr_scale);
  ++version_;
  versions_->Increment();
  if (kind_ != StrategyKind::kPsBackup) return;
  // Every model sent out at the version just superseded is now a wasted
  // gradient; older ones were counted at their own close.
  for (const Worker& w : workers_) {
    if (w.hold == Hold::kModel && w.version + 1 == version_) {
      wasted_->Increment();
    }
  }
}

}  // namespace pr
