// SNNSEC_HOT: per-request serving path — steady state must not allocate.
#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/checked.hpp"
#include "util/logging.hpp"

namespace snnsec::serve {

using tensor::Shape;
using tensor::Tensor;

namespace {

/// The deep canary fires only after this much batch-free quiet: under
/// closed-loop traffic the admission queue transiently empties between
/// batches, and a probe inference in that gap blocks the next batch —
/// measured as a ~2x p99 blowup on a single-core host.
constexpr std::int64_t kDeepCanaryIdleGraceMs = 25;

std::int64_t elapsed_us(std::chrono::steady_clock::time_point from,
                        std::chrono::steady_clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::microseconds>(to - from)
      .count();
}

}  // namespace

Server::Server(ServerConfig cfg)
    : Server(std::move(cfg), nullptr) {}

Server::Server(ServerConfig cfg,
               std::shared_ptr<const ModelCache::Artifact> model)
    : cfg_(std::move(cfg)),
      artifact_(model ? std::move(model)
                      : ModelCache::global().acquire(cfg_.model_path)),
      start_(std::chrono::steady_clock::now()),
      batcher_(cfg_.batcher) {
  SNNSEC_CHECK(cfg_.workers == 0,
               "ServerConfig: workers must be 0, got "
                   << cfg_.workers
                   << "; resident workers were removed and every batch runs "
                      "on the submitting threads");
  const std::int64_t t = artifact_->config().time_steps;
  cfg_.min_steps = std::clamp<std::int64_t>(cfg_.min_steps, 1, t);
  SNNSEC_CHECK(cfg_.default_deadline_us >= 0,
               "ServerConfig: default_deadline_us must be >= 0");
  SNNSEC_CHECK(std::isfinite(cfg_.flag_threshold) && cfg_.flag_threshold >= 0.0,
               "ServerConfig: flag_threshold must be finite and >= 0, got "
                   << cfg_.flag_threshold);

  if (cfg_.envelope) {
    envelope_ = cfg_.envelope;
  } else if (!cfg_.envelope_path.empty()) {
    // try_load validates magic/digest/version and requires the envelope's
    // config_hash to match the served model; on any failure the server
    // comes up without a detector instead of refusing to start.
    auto loaded = obs::ActivityEnvelope::try_load(cfg_.envelope_path,
                                                  artifact_->config_hash());
    if (loaded)
      envelope_ = std::make_shared<const obs::ActivityEnvelope>(
          std::move(*loaded));
    else
      SNNSEC_LOG_WARN("serve: envelope '" << cfg_.envelope_path
                                          << "' unusable; online detection "
                                             "disabled");
  }
  if (envelope_) {
    SNNSEC_CHECK(envelope_->ready(),
                 "ServerConfig: injected envelope is not fitted");
    // Wall clock touched once, here: the staleness gauge then advances on
    // the steady clock the hot path already reads.
    const auto now_unix_s =
        std::chrono::duration_cast<std::chrono::seconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    detect_age_base_s_ = static_cast<double>(
        now_unix_s - envelope_->created_unix_s());
    SNNSEC_GAUGE_SET("serve.detect.calibration_age_s", detect_age_base_s_);
    SNNSEC_LOG_INFO("serve: online detection armed ("
                    << envelope_->summary() << ", policy="
                    << to_string(cfg_.detect_policy) << ", threshold="
                    << cfg_.flag_threshold << ")");
  }
  if (cfg_.supervisor.enabled)
    sup_ = std::make_unique<Supervisor>(cfg_.supervisor, *artifact_);

  const nn::LenetSpec& arch = artifact_->arch();
  // NOLINTNEXTLINE(snnsec-hot-alloc): startup-time slot construction.
  slots_.reserve(static_cast<std::size_t>(batcher_.capacity()));
  for (std::int64_t i = 0; i < batcher_.capacity(); ++i) {
    auto slot = std::make_unique<Slot>();
    slot->input = Tensor(
        Shape{1, arch.in_channels, arch.image_size, arch.image_size});
    // NOLINTNEXTLINE(snnsec-hot-alloc): startup-time slot construction.
    slots_.push_back(std::move(slot));
  }
  const std::size_t cap = static_cast<std::size_t>(cfg_.batcher.max_batch);
  // NOLINTNEXTLINE(snnsec-hot-alloc): startup-time batch buffer sizing.
  ctx_.slots.resize(cap);
  // NOLINTNEXTLINE(snnsec-hot-alloc): startup-time batch buffer sizing.
  ctx_.budget.resize(cap);
  // NOLINTNEXTLINE(snnsec-hot-alloc): startup-time batch buffer sizing.
  ctx_.finalized.resize(cap);
  // NOLINTNEXTLINE(snnsec-hot-alloc): startup-time batch buffer sizing.
  ctx_.epochs.resize(cap);
  // NOLINTNEXTLINE(snnsec-hot-alloc): startup-time batch buffer sizing.
  ctx_.degraded.resize(cap);
  // A replica that cannot reproduce the golden logits should fail loudly at
  // startup.
  SNNSEC_CHECK(stamp_replica(), "serve: replica failed its boot canary");
  if (sup_) sup_thread_ = std::thread([this] { supervise_loop(); });
}

Server::~Server() { stop(); }

std::int64_t Server::now_ms() const {
  return elapsed_us(start_, std::chrono::steady_clock::now()) / 1000;
}

bool Server::stamp_replica() {
  ctx_.model = artifact_->make_replica();
  ctx_.runner = std::make_unique<snn::AnytimeRunner>(*ctx_.model,
                                                     cfg_.allow_faults);
  if (envelope_) {
    // Configured once: a respawned runner reuses the warm accumulator.
    if (!ctx_.sketch.configured()) {
      SNNSEC_CHECK(envelope_->layers().size() ==
                       ctx_.runner->sketch_layers().size(),
                   "serve: envelope calibrated for "
                       << envelope_->layers().size()
                       << " spiking layers, model has "
                       << ctx_.runner->sketch_layers().size());
      ctx_.sketch.configure(ctx_.runner->sketch_layers(),
                            envelope_->buckets());
    }
    ctx_.runner->set_sketch(&ctx_.sketch);
  }
  if (!sup_) return true;
  ctx_.params = ctx_.model->parameters();
  ctx_.lifs.clear();
  nn::Sequential& net = ctx_.model->net();
  for (std::size_t i = 0; i < net.size(); ++i)
    if (auto* lif = dynamic_cast<snn::LifLayer*>(&net.layer(i)))
      // NOLINTNEXTLINE(snnsec-hot-alloc): startup/respawn-time construction.
      ctx_.lifs.push_back(lif);
  ctx_.canary_runner = std::make_unique<snn::AnytimeRunner>(*ctx_.model);
  // Prewarm and boot-verify: the deep canary's stage buffers must be warm
  // before steady state (zero-alloc gate).
  ctx_.canary_runner->run(sup_->probe());
  ctx_.last_canary_ms.store(now_ms(), std::memory_order_relaxed);
  return sup_->logits_ok(ctx_.canary_runner->logits());
}

bool Server::infer(const Tensor& x, const RequestOptions& opt,
                   InferResult& out) {
  const nn::LenetSpec& arch = artifact_->arch();
  const bool shape_ok =
      (x.ndim() == 3 && x.dim(0) == arch.in_channels &&
       x.dim(1) == arch.image_size && x.dim(2) == arch.image_size) ||
      (x.ndim() == 4 && x.dim(0) == 1 && x.dim(1) == arch.in_channels &&
       x.dim(2) == arch.image_size && x.dim(3) == arch.image_size);
  SNNSEC_CHECK(shape_ok, "Server::infer: expected ["
                             << arch.in_channels << ", " << arch.image_size
                             << ", " << arch.image_size
                             << "] image (optionally with a leading batch-1 "
                                "dim), got "
                             << x.shape().to_string());
  SNNSEC_CHECK(opt.deadline_us >= 0 && opt.max_steps >= 0,
               "Server::infer: negative deadline_us/max_steps");

  // A NaN/Inf pixel would flow straight into the constant-current encoding
  // and poison every downstream membrane; reject it before admission.
  const float* px = x.data();
  const std::int64_t pixels = x.numel();
  bool finite_input = true;
  for (std::int64_t k = 0; k < pixels; ++k) {
    if (!std::isfinite(px[k])) {
      finite_input = false;
      break;
    }
  }
  if (!finite_input) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    SNNSEC_COUNTER_ADD("serve.errors", 1);
    out.status = ResultStatus::kError;
    out.pred = -1;
    out.steps_used = 0;
    out.time_steps = time_steps();
    out.truncated = false;
    out.queue_us = 0;
    out.latency_us = 0;
    out.batch_size = 0;
    out.anomaly_score = -1.0;
    out.flagged = false;
    out.attempts = 0;
    out.degraded = false;
    out.error = "non-finite input pixel rejected before encoding";
    return false;
  }

  const std::int64_t slot_idx = batcher_.try_acquire();
  if (slot_idx < 0) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    SNNSEC_COUNTER_ADD("serve.shed", 1);
    out.status = ResultStatus::kRejected;
    out.pred = -1;
    out.steps_used = 0;
    out.time_steps = time_steps();
    out.truncated = false;
    out.queue_us = 0;
    out.latency_us = 0;
    out.batch_size = 0;
    out.anomaly_score = -1.0;
    out.flagged = false;
    out.attempts = 0;
    out.degraded = false;
    out.error = batcher_.stopped() ? "server stopped" : "queue at capacity";
    return false;
  }

  submitted_.fetch_add(1, std::memory_order_relaxed);
  SNNSEC_COUNTER_ADD("serve.requests", 1);
  Slot& s = *slots_[static_cast<std::size_t>(slot_idx)];
  // The slot is exclusively ours until enqueue() publishes it.
  std::copy(x.data(), x.data() + x.numel(), s.input.data());
  s.opt = opt;
  if (s.opt.deadline_us == 0) s.opt.deadline_us = cfg_.default_deadline_us;
  s.submitted = std::chrono::steady_clock::now();
  s.has_deadline = s.opt.deadline_us > 0;
  if (s.has_deadline)
    s.deadline = s.submitted + std::chrono::microseconds(s.opt.deadline_us);
  s.out = &out;
  // NOLINTNEXTLINE(snnsec-mixed-guard): slot exclusively ours until enqueue()
  s.done = false;
  s.attempts.store(0, std::memory_order_relaxed);
  {
    SNNSEC_TRACE_SCOPE_ID("serve.enqueue", slot_idx);
    batcher_.enqueue(slot_idx);
  }
  SNNSEC_GAUGE_SET("serve.queue_depth",
                   static_cast<double>(batcher_.depth()));

  drive_inline(s);
  batcher_.release(slot_idx);
  return out.status == ResultStatus::kOk;
}

void Server::drive_inline(Slot& own) {
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(own.m);
      if (own.done) return;
    }
    std::lock_guard<std::mutex> ex(inline_m_);
    {
      std::lock_guard<std::mutex> lk(own.m);
      if (own.done) return;
    }
    // Our slot is still pending and no other thread is executing (we hold
    // the execution lock), so next_batch is guaranteed to make progress.
    // With supervision, heal/canary first: a requeued request must not
    // land back on the quarantined replica it just escaped.
    // NOLINTNEXTLINE(snnsec-lock-across-wait): inline_m_ serializes inline executors; the wait below is a parallel_for join on pool workers, which never take inline_m_
    if (sup_) maintain();
    // NOLINTNEXTLINE(snnsec-lock-across-wait): inline_m_ serializes inline executors; wait bounded by flush deadline
    const std::int64_t n = batcher_.next_batch(ctx_.slots.data());
    // NOLINTNEXTLINE(snnsec-lock-across-wait): inline_m_ serializes inline executors; the wait below is a parallel_for join on pool workers, which never take inline_m_
    if (n > 0) execute_batch(n);
  }
}

// SNNSEC_HOT entry: per-batch inference drive, reached from every request.
void Server::execute_batch(std::int64_t n) {
  const auto exec_start = std::chrono::steady_clock::now();
  const std::int64_t batch_id =
      batches_.fetch_add(1, std::memory_order_relaxed);
  SNNSEC_TRACE_SCOPE_ID("serve.batch", batch_id);
  SNNSEC_COUNTER_ADD("serve.batches", 1);
  SNNSEC_HISTOGRAM_OBSERVE("serve.batch_size", static_cast<double>(n), 1, 2,
                           4, 8, 16, 32, 64);
  SNNSEC_GAUGE_SET("serve.queue_depth",
                   static_cast<double>(batcher_.depth()));

  if (sup_) {
    ctx_.hb_ms.store(elapsed_us(start_, exec_start) / 1000,
                     std::memory_order_relaxed);
    ctx_.current_batch.store(batch_id, std::memory_order_relaxed);
    ctx_.busy.store(true, std::memory_order_release);
  }
  for (std::int64_t i = 0; i < n; ++i) {
    Slot& s = *slots_[static_cast<std::size_t>(ctx_.slots[
        static_cast<std::size_t>(i)])];
    ctx_.finalized[static_cast<std::size_t>(i)] = 0;
    // Latch the retry epoch: we may deliver this row only while it still
    // matches (a requeue bumps it).
    ctx_.epochs[static_cast<std::size_t>(i)] =
        s.epoch.load(std::memory_order_acquire);
    if (sup_) s.attempts.fetch_add(1, std::memory_order_relaxed);
  }

  if (cfg_.chaos_on_batch) {
    ChaosContext ctx;
    ctx.batch_id = batch_id;
    ctx.respawns = ctx_.respawns.load(std::memory_order_relaxed);
    ctx.model = ctx_.model.get();
    cfg_.chaos_on_batch(ctx);
  }

  const nn::LenetSpec& arch = artifact_->arch();
  const std::int64_t image = arch.in_channels * arch.image_size *
                             arch.image_size;
  const std::int64_t t_max = time_steps();
  // Overload governor: one step budget per batch, a pure function of queue
  // pressure — degrade toward the truncation-curve cliff before shedding.
  std::int64_t governed = t_max;
  if (sup_) {
    governed = std::max(
        sup_->governed_steps(batcher_.depth(), batcher_.capacity()),
        cfg_.min_steps);
    SNNSEC_GAUGE_SET("serve.health.governed_max_steps",
                     static_cast<double>(governed));
  }
  {
    SNNSEC_TRACE_SCOPE_ID("serve.batch.flush", batch_id);
    if (ctx_.batch_input.ndim() != 4 || ctx_.batch_input.dim(0) != n ||
        ctx_.batch_input.dim(1) != arch.in_channels ||
        ctx_.batch_input.dim(2) != arch.image_size ||
        ctx_.batch_input.dim(3) != arch.image_size)
      ctx_.batch_input = Tensor(
          Shape{n, arch.in_channels, arch.image_size, arch.image_size});
    for (std::int64_t i = 0; i < n; ++i) {
      Slot& s = *slots_[static_cast<std::size_t>(ctx_.slots[
          static_cast<std::size_t>(i)])];
      std::copy(s.input.data(), s.input.data() + image,
                ctx_.batch_input.data() + i * image);
      const std::int64_t user =
          s.opt.max_steps > 0 ? std::min(s.opt.max_steps, t_max) : t_max;
      ctx_.budget[static_cast<std::size_t>(i)] = std::min(user, governed);
      ctx_.degraded[static_cast<std::size_t>(i)] =
          ctx_.budget[static_cast<std::size_t>(i)] < user ? 1 : 0;
    }
  }

  try {
    SNNSEC_TRACE_SCOPE_ID("serve.batch.forward", batch_id);
    ctx_.runner->begin(ctx_.batch_input);
    std::int64_t remaining = n;
    for (std::int64_t t = 1; t <= t_max && remaining > 0; ++t) {
      ctx_.runner->step();
      const auto now = std::chrono::steady_clock::now();
      if (sup_)
        ctx_.hb_ms.store(elapsed_us(start_, now) / 1000,
                      std::memory_order_relaxed);
      for (std::int64_t i = 0; i < n; ++i) {
        if (ctx_.finalized[static_cast<std::size_t>(i)]) continue;
        Slot& s = *slots_[static_cast<std::size_t>(ctx_.slots[
            static_cast<std::size_t>(i)])];
        const bool out_of_budget =
            t >= ctx_.budget[static_cast<std::size_t>(i)];
        const bool past_deadline =
            s.has_deadline && t >= cfg_.min_steps && now >= s.deadline;
        if (out_of_budget || past_deadline) {
          SNNSEC_TRACE_SCOPE_ID("serve.batch.finalize", batch_id);
          finalize(s, i, t, n, exec_start);
          ctx_.finalized[static_cast<std::size_t>(i)] = 1;
          --remaining;
        }
      }
    }
  } catch (const std::exception& e) {
    if (sup_) {
      // The replica is suspect; requeue the batch's unfinalized requests
      // so a healthy replica (or this one, post-heal) re-runs them.
      quarantine("batch execution threw");
      for (std::int64_t i = 0; i < n; ++i) {
        if (ctx_.finalized[static_cast<std::size_t>(i)]) continue;
        retry_slot(ctx_.slots[static_cast<std::size_t>(i)],
                   ctx_.epochs[static_cast<std::size_t>(i)], e.what(), n);
        ctx_.finalized[static_cast<std::size_t>(i)] = 1;
      }
    } else {
      for (std::int64_t i = 0; i < n; ++i) {
        if (ctx_.finalized[static_cast<std::size_t>(i)]) continue;
        Slot& s = *slots_[static_cast<std::size_t>(ctx_.slots[
            static_cast<std::size_t>(i)])];
        deliver_error(s, e.what(), n,
                      ctx_.epochs[static_cast<std::size_t>(i)]);
        ctx_.finalized[static_cast<std::size_t>(i)] = 1;
      }
    }
  }
  if (sup_) {
    ctx_.busy.store(false, std::memory_order_release);
    last_batch_end_ms_.store(now_ms(), std::memory_order_relaxed);
  }
}

void Server::finalize(Slot& s, std::int64_t row,
                      std::int64_t steps, std::int64_t batch_size,
                      std::chrono::steady_clock::time_point exec_start) {
  const snn::AnytimeRunner& runner = *ctx_.runner;
  const std::int64_t classes = num_classes();
  const float* logits = runner.logits().data() + row * classes;

  if (sup_) {
    // Non-finite logits (NaN storm, exponent-bit weight flip) never reach a
    // caller under supervision: quarantine the replica and retry the
    // request elsewhere. Unsupervised servers deliver them unchanged — the
    // chaos bench's supervision-off arm measures exactly that damage.
    bool finite = true;
    for (std::int64_t c = 0; c < classes; ++c) {
      if (!std::isfinite(logits[c])) {
        finite = false;
        break;
      }
    }
    if (!finite) {
      sup_->note_nonfinite();
      quarantine("non-finite logits");
      retry_slot(ctx_.slots[static_cast<std::size_t>(row)],
                 ctx_.epochs[static_cast<std::size_t>(row)],
                 "non-finite logits", batch_size);
      return;
    }
  }

  double anomaly = -1.0;
  bool flagged = false;
  if (envelope_) {
    // Freeze this request's activity summary at its truncation depth and
    // score it against the clean bands — both allocation-free after the
    // first response.
    ctx_.sketch.finalize(row, ctx_.sketch_out);
    anomaly = envelope_->score(ctx_.sketch_out);
    flagged = anomaly >= cfg_.flag_threshold;
  }

  const auto now = std::chrono::steady_clock::now();
  bool delivered = false;
  bool was_truncated = false;
  bool was_degraded = false;
  {
    // NOLINTNEXTLINE(snnsec-hot-path-lock): per-slot delivery lock, uncontended per request
    std::lock_guard<std::mutex> lk(s.m);
    const bool stale =
        s.done || s.epoch.load(std::memory_order_relaxed) !=
                      ctx_.epochs[static_cast<std::size_t>(row)];
    if (!stale) {
      InferResult& r = *s.out;
      // Caller-owned result buffer: grows only on the first response
      // written into this InferResult object, then stays put across reuse.
      if (static_cast<std::int64_t>(r.scores.size()) != classes)
        // NOLINTNEXTLINE(snnsec-hot-alloc): first-response-only growth
        r.scores.resize(static_cast<std::size_t>(classes));
      std::int64_t best = 0;
      for (std::int64_t c = 0; c < classes; ++c) {
        r.scores[static_cast<std::size_t>(c)] = logits[c];
        if (logits[c] > logits[best]) best = c;
      }
      r.status = ResultStatus::kOk;
      r.pred = best;
      r.steps_used = steps;
      r.time_steps = runner.time_steps();
      r.truncated = steps < runner.time_steps();
      r.batch_size = batch_size;
      r.queue_us = elapsed_us(s.submitted, exec_start);
      r.latency_us = elapsed_us(s.submitted, now);
      r.anomaly_score = anomaly;
      r.flagged = flagged;
      r.attempts = std::max<std::int64_t>(
          1, s.attempts.load(std::memory_order_relaxed));
      r.degraded = ctx_.degraded[static_cast<std::size_t>(row)] != 0;
      r.error.clear();
      if (flagged && cfg_.detect_policy == DetectPolicy::kReject)
        r.status = ResultStatus::kFlagged;
      was_truncated = r.truncated;
      was_degraded = r.degraded;
      s.done = true;
      delivered = true;
    }
  }
  if (!delivered) return;  // a retry owns this request now

  if (envelope_) {
    SNNSEC_HISTOGRAM_OBSERVE("serve.detect.score", anomaly, 0.5, 1, 2, 4, 8,
                             16, 32, 64);
    SNNSEC_GAUGE_SET(
        "serve.detect.calibration_age_s",
        detect_age_base_s_ +
            static_cast<double>(elapsed_us(start_, now)) * 1e-6);
    if (flagged) {
      // NOLINTNEXTLINE(snnsec-relaxed-atomic): pure event counter, only aggregated
      flagged_.fetch_add(1, std::memory_order_relaxed);
      SNNSEC_COUNTER_ADD("serve.detect.flagged", 1);
      if (cfg_.detect_policy == DetectPolicy::kReject)
        SNNSEC_COUNTER_ADD("serve.detect.rejected", 1);
    }
  }
  completed_.fetch_add(1, std::memory_order_relaxed);
  SNNSEC_COUNTER_ADD("serve.completed", 1);
  if (was_truncated) {
    truncated_.fetch_add(1, std::memory_order_relaxed);
    SNNSEC_COUNTER_ADD("serve.truncated", 1);
  }
  if (was_degraded && sup_) sup_->note_degraded();
  SNNSEC_HISTOGRAM_OBSERVE("serve.latency_us",
                           static_cast<double>(elapsed_us(s.submitted, now)),
                           100, 300, 1000, 3000, 10000, 30000, 100000,
                           300000, 1000000);
}

void Server::deliver_error(Slot& s, const char* what,
                           std::int64_t batch_size,
                           std::int64_t latched_epoch) {
  const auto now = std::chrono::steady_clock::now();
  bool delivered = false;
  {
    // NOLINTNEXTLINE(snnsec-hot-path-lock): per-slot delivery lock, error path only
    std::lock_guard<std::mutex> lk(s.m);
    const bool stale =
        s.done || s.epoch.load(std::memory_order_relaxed) != latched_epoch;
    if (!stale) {
      InferResult& r = *s.out;
      r.status = ResultStatus::kError;
      r.pred = -1;
      r.steps_used = 0;
      r.time_steps = time_steps();
      r.truncated = false;
      r.batch_size = batch_size;
      r.queue_us = 0;
      r.latency_us = elapsed_us(s.submitted, now);
      r.anomaly_score = -1.0;
      r.flagged = false;
      r.attempts = std::max<std::int64_t>(
          1, s.attempts.load(std::memory_order_relaxed));
      r.degraded = false;
      r.error = what;
      s.done = true;
      delivered = true;
    }
  }
  if (!delivered) return;
  errors_.fetch_add(1, std::memory_order_relaxed);
  SNNSEC_COUNTER_ADD("serve.errors", 1);
}

void Server::retry_slot(std::int64_t slot_idx, std::int64_t latched_epoch,
                        const char* why, std::int64_t batch_size) {
  Slot& s = *slots_[static_cast<std::size_t>(slot_idx)];
  bool requeued = false;
  bool exhausted = false;
  {
    // NOLINTNEXTLINE(snnsec-hot-path-lock): per-slot retry lock, canary path only
    std::lock_guard<std::mutex> lk(s.m);
    if (s.done) return;
    const std::int64_t cur = s.epoch.load(std::memory_order_relaxed);
    if (cur != latched_epoch) return;
    if (s.attempts.load(std::memory_order_relaxed) >= sup_->max_attempts()) {
      const auto now = std::chrono::steady_clock::now();
      InferResult& r = *s.out;
      r.status = ResultStatus::kError;
      r.pred = -1;
      r.steps_used = 0;
      r.time_steps = time_steps();
      r.truncated = false;
      r.batch_size = batch_size;
      r.queue_us = 0;
      r.latency_us = elapsed_us(s.submitted, now);
      r.anomaly_score = -1.0;
      r.flagged = false;
      r.attempts = s.attempts.load(std::memory_order_relaxed);
      r.degraded = false;
      r.error = why;
      s.done = true;
      exhausted = true;
    } else {
      // Bump the epoch first: any stale executor's delivery becomes a
      // no-op before the request re-enters the queue.
      s.epoch.store(cur + 1, std::memory_order_release);
      requeued = true;
    }
  }
  if (exhausted) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    SNNSEC_COUNTER_ADD("serve.errors", 1);
    return;
  }
  if (requeued) {
    sup_->note_retry();
    // enqueue admits even after stop(): a draining server still owes every
    // admitted request an answer.
    batcher_.enqueue(slot_idx);
  }
}

void Server::quarantine(const char* reason) {
  ReplicaState expected = ReplicaState::kHealthy;
  if (ctx_.state.compare_exchange_strong(expected,
                                         ReplicaState::kQuarantined)) {
    sup_->note_canary_failure(reason);
    sup_->note_quarantine();
    SNNSEC_LOG_WARN("serve: replica quarantined: " << reason);
  }
}

void Server::maintain() {
  if (ctx_.supervision_disabled.load(std::memory_order_relaxed)) return;
  if (ctx_.state.load(std::memory_order_acquire) ==
      ReplicaState::kQuarantined) {
    heal();
    return;
  }
  const SupervisorConfig& sc = cfg_.supervisor;
  if (sc.fast_canary_every > 0 &&
      ++ctx_.batches_since_canary >= sc.fast_canary_every) {
    ctx_.batches_since_canary = 0;
    fast_canary();
  }
  // Deep canary only in real idle windows (empty queue AND a batch-free
  // grace period): a probe inference mid-traffic would show up directly in
  // tail latency, and the per-batch fast canary already carries detection
  // under load.
  const std::int64_t now = now_ms();
  if (sc.canary_interval_ms > 0 && batcher_.depth() == 0 &&
      now - last_batch_end_ms_.load(std::memory_order_relaxed) >=
          kDeepCanaryIdleGraceMs &&
      now - ctx_.last_canary_ms.load(std::memory_order_relaxed) >=
          sc.canary_interval_ms)
    deep_canary();
  if (ctx_.state.load(std::memory_order_acquire) ==
      ReplicaState::kQuarantined)
    heal();
}

void Server::fast_canary() {
  sup_->note_fast_canary();
  for (snn::LifLayer* lif : ctx_.lifs) {
    if (lif->spike_fault().any()) {
      quarantine("armed spike fault detected on replica");
      return;
    }
  }
  if (Supervisor::weights_digest(ctx_.params) !=
      sup_->golden_weights_digest())
    quarantine("weights digest diverged from golden");
}

void Server::deep_canary() {
  sup_->note_deep_canary();
  SNNSEC_TRACE_SCOPE("serve.canary");
  try {
    ctx_.canary_runner->run(sup_->probe());
    if (!sup_->logits_ok(ctx_.canary_runner->logits()))
      quarantine("canary logits diverged from golden");
  } catch (const std::exception&) {
    // e.g. an armed spike fault the fast tier has not scanned yet: the
    // canary runner refuses faulted models by design.
    quarantine("canary inference threw");
  }
  ctx_.last_canary_ms.store(now_ms(), std::memory_order_relaxed);
}

void Server::heal() {
  const SupervisorConfig& sc = cfg_.supervisor;
  if (ctx_.respawns.load(std::memory_order_relaxed) >= sc.max_respawns) {
    // The replica is the only executor; keep serving unsupervised rather
    // than wedging every client.
    ctx_.supervision_disabled.store(true, std::memory_order_relaxed);
    ctx_.state.store(ReplicaState::kHealthy);
    SNNSEC_LOG_WARN(
        "serve: replica exhausted its respawn budget; supervision disabled");
    return;
  }
  SNNSEC_TRACE_SCOPE("serve.respawn");
  // Respawn path, not steady state: stamping a fresh replica allocates.
  ctx_.respawns.fetch_add(1, std::memory_order_relaxed);
  sup_->note_respawn();
  const bool verified = stamp_replica();
  ctx_.state.store(ReplicaState::kHealthy);
  if (verified) {
    SNNSEC_LOG_INFO("serve: replica respawned from artifact (respawn "
                    << ctx_.respawns.load(std::memory_order_relaxed) << "/"
                    << sc.max_respawns << ")");
  } else {
    // A pristine replica failing its boot canary means the golden state
    // itself is suspect; serve rather than heal-loop (the next canary
    // re-checks, bounded by the respawn budget).
    SNNSEC_LOG_WARN(
        "serve: replica respawned but failed its boot canary; serving "
        "anyway");
  }
}

void Server::supervise_loop() {
  const SupervisorConfig& sc = cfg_.supervisor;
  for (;;) {
    // Small sleep slices so stop() joins promptly.
    for (int i = 0; i < 5; ++i) {
      if (sup_stop_.load(std::memory_order_acquire)) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (ctx_.supervision_disabled.load(std::memory_order_relaxed)) continue;
    const std::int64_t now = now_ms();
    if (sc.heartbeat_timeout_ms > 0 &&
        ctx_.busy.load(std::memory_order_acquire)) {
      const std::int64_t hb = ctx_.hb_ms.load(std::memory_order_relaxed);
      const std::int64_t cur =
          ctx_.current_batch.load(std::memory_order_relaxed);
      if (now - hb > sc.heartbeat_timeout_ms && cur != ctx_.last_trip_batch) {
        // Detection only: the stalled batch runs on a client thread that
        // cannot be preempted. Quarantine, so the thread's post-batch
        // maintain() respawns the replica.
        ctx_.last_trip_batch = cur;
        sup_->note_watchdog_trip();
        quarantine("heartbeat missed (stalled batch)");
      }
    }
    // Deep canary / heal only when the server looks idle (see maintain);
    // a client blocked behind the probe would pay for it in tail latency.
    if (sc.canary_interval_ms > 0 &&
        !ctx_.busy.load(std::memory_order_acquire) &&
        batcher_.depth() == 0 &&
        now - last_batch_end_ms_.load(std::memory_order_relaxed) >=
            kDeepCanaryIdleGraceMs &&
        now - ctx_.last_canary_ms.load(std::memory_order_relaxed) >=
            sc.canary_interval_ms) {
      // try_lock: never block the supervisor behind a wedged batch.
      std::unique_lock<std::mutex> lk(inline_m_, std::try_to_lock);
      if (lk.owns_lock()) {
        if (ctx_.state.load(std::memory_order_acquire) ==
            ReplicaState::kQuarantined) {
          // NOLINTNEXTLINE(snnsec-lock-across-wait): inline_m_ serializes inline executors; the wait below is a parallel_for join on pool workers, which never take inline_m_
          heal();
        } else {
          // NOLINTNEXTLINE(snnsec-lock-across-wait): inline_m_ serializes inline executors; the wait below is a parallel_for join on pool workers, which never take inline_m_
          deep_canary();
          if (ctx_.state.load(std::memory_order_acquire) ==
              ReplicaState::kQuarantined) {
            // NOLINTNEXTLINE(snnsec-lock-across-wait): inline_m_ serializes inline executors; the wait below is a parallel_for join on pool workers, which never take inline_m_
            heal();
          }
        }
      }
    }
  }
}

void Server::stop() {
  if (sup_thread_.joinable()) {
    sup_stop_.store(true, std::memory_order_release);
    sup_thread_.join();
  }
  batcher_.stop();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.truncated = truncated_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  // NOLINTNEXTLINE(snnsec-relaxed-atomic): advisory counter snapshot, no ordering
  s.flagged = flagged_.load(std::memory_order_relaxed);
  if (sup_) {
    const SupervisorStats h = sup_->stats();
    s.canary_failures = h.canary_failures;
    s.quarantines = h.quarantines;
    s.respawns = h.respawns;
    s.watchdog_trips = h.watchdog_trips;
    s.retries = h.retries;
    s.degraded = h.degraded;
  }
  return s;
}

std::int64_t Server::time_steps() const {
  return artifact_->config().time_steps;
}

std::int64_t Server::num_classes() const {
  return artifact_->arch().num_classes;
}

const char* to_string(ResultStatus status) {
  switch (status) {
    case ResultStatus::kOk:
      return "ok";
    case ResultStatus::kRejected:
      return "rejected";
    case ResultStatus::kError:
      return "error";
    case ResultStatus::kFlagged:
      return "flagged";
  }
  return "unknown";
}

const char* to_string(DetectPolicy policy) {
  switch (policy) {
    case DetectPolicy::kObserve:
      return "observe";
    case DetectPolicy::kReject:
      return "reject";
    case DetectPolicy::kReroute:
      return "reroute";
  }
  return "unknown";
}

}  // namespace snnsec::serve
