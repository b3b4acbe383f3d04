// SNNSEC_HOT: per-request routing/admission path — steady state must not
// allocate (quota rejects and routed completions alike).
#include "fleet/router.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "util/checked.hpp"
#include "util/logging.hpp"

namespace snnsec::fleet {
namespace {

// One admission token, in micro-tokens: integer bucket arithmetic at
// microsecond refill granularity.
constexpr std::int64_t kUtokPerRequest = 1'000'000;

}  // namespace

const char* to_string(Threat t) {
  switch (t) {
    case Threat::kTrusted: return "trusted";
    case Threat::kSuspect: return "suspect";
    case Threat::kHostile: return "hostile";
  }
  return "unknown";
}

const char* to_string(GroupRole r) {
  switch (r) {
    case GroupRole::kLowLatency: return "low-latency";
    case GroupRole::kBalanced: return "balanced";
    case GroupRole::kHardened: return "hardened";
  }
  return "unknown";
}

// SNNSEC_HOT entry: per-request quota check, before any model work.
bool Router::Bucket::try_take(std::int64_t now_us) {
  if (cap_utok == 0) return true;  // unlimited tenant
  if (rate_utok_per_us > 0.0) {
    // Claim the refill window [last, now). The CAS loser simply skips the
    // refill; its tokens arrive with the next winner's window. Under-refill
    // only delays admission, never mints extra tokens.
    std::int64_t last = last_refill_us.load(std::memory_order_relaxed);
    if (now_us > last &&
        last_refill_us.compare_exchange_strong(last, now_us,
                                               std::memory_order_relaxed)) {
      const auto add = static_cast<std::int64_t>(
          static_cast<double>(now_us - last) * rate_utok_per_us);
      std::int64_t cur = level_utok.load(std::memory_order_relaxed);
      std::int64_t want = 0;
      do {
        want = std::min(cap_utok, cur + add);
      } while (cur < want &&
               !level_utok.compare_exchange_weak(cur, want,
                                                 std::memory_order_relaxed));
    }
  }
  std::int64_t cur = level_utok.load(std::memory_order_relaxed);
  do {
    if (cur < kUtokPerRequest) return false;
  } while (!level_utok.compare_exchange_weak(cur, cur - kUtokPerRequest,
                                             std::memory_order_relaxed));
  return true;
}

Router::Router(RouterConfig cfg)
    : cfg_(std::move(cfg)), start_(std::chrono::steady_clock::now()) {
  SNNSEC_CHECK(!cfg_.groups.empty(), "Router: at least one group required");

  // NOLINTNEXTLINE(snnsec-hot-alloc): startup-time group construction.
  groups_.reserve(cfg_.groups.size());
  for (std::size_t gi = 0; gi < cfg_.groups.size(); ++gi) {
    const GroupConfig& gc = cfg_.groups[gi];
    SNNSEC_CHECK(gc.replicas >= 1, "Router: group '"
                                       << gc.name << "' needs >= 1 replica");
    auto g = std::make_unique<Group>();
    g->cfg = gc;
    g->artifact = gc.artifact
                      ? gc.artifact
                      : serve::ModelCache::global().acquire(gc.model_path);
    const nn::LenetSpec& a = g->artifact->arch();
    if (gi > 0) {
      const nn::LenetSpec& a0 = groups_[0]->artifact->arch();
      SNNSEC_CHECK(a.in_channels == a0.in_channels &&
                       a.image_size == a0.image_size &&
                       a.num_classes == a0.num_classes,
                   "Router: group '" << gc.name
                                     << "' input geometry/classes differ "
                                        "from group '"
                                     << cfg_.groups[0].name << "'");
    }
    const std::int64_t steps = g->artifact->config().time_steps;
    if (gc.default_max_steps > 0) {
      g->default_max_steps = gc.default_max_steps;
    } else if (gc.role == GroupRole::kLowLatency) {
      // Default trusted traffic to t = 7T/8. This is not measured to be
      // safe: BENCH_serve's deadline curve records 40.0% accuracy at
      // t = 14/16 against 73.3% at 16/16, and chance at t <= 12 (ROADMAP
      // item 7).
      g->default_max_steps =
          std::max(gc.server.min_steps, steps - steps / 8);
    }
    for (std::int64_t r = 0; r < gc.replicas; ++r) {
      serve::ServerConfig sc = gc.server;
      sc.model_path.clear();
      if (!gc.chaos_per_replica.empty())
        sc.chaos_on_batch = static_cast<std::size_t>(r) <
                                    gc.chaos_per_replica.size()
                                ? gc.chaos_per_replica[static_cast<
                                      std::size_t>(r)]
                                : serve::ChaosHook{};
      // NOLINTNEXTLINE(snnsec-hot-alloc): startup-time replica construction.
      g->servers.push_back(
          std::make_unique<serve::Server>(sc, g->artifact));
    }
    // NOLINTNEXTLINE(snnsec-hot-alloc): fills capacity reserved above.
    groups_.push_back(std::move(g));
  }

  // Resolve the routing anchors. Explicit roles win; otherwise fall back
  // to the structural parameters themselves (lowest Vth then shortest T is
  // the cheapest cell, highest Vth then longest T the most robust).
  auto cell = [&](std::size_t i) {
    return std::make_pair(groups_[i]->artifact->config().v_th,
                          groups_[i]->artifact->config().time_steps);
  };
  std::int64_t low = -1;
  std::int64_t hard = -1;
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (low < 0 && groups_[i]->cfg.role == GroupRole::kLowLatency)
      low = static_cast<std::int64_t>(i);
    if (hard < 0 && groups_[i]->cfg.role == GroupRole::kHardened)
      hard = static_cast<std::int64_t>(i);
  }
  if (low < 0) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < groups_.size(); ++i)
      if (cell(i) < cell(best)) best = i;
    low = static_cast<std::int64_t>(best);
  }
  if (hard < 0) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < groups_.size(); ++i)
      if (cell(i) > cell(best)) best = i;
    hard = static_cast<std::int64_t>(best);
  }
  low_latency_ = low;
  hardened_ = hard;

  // Tenant table: sorted for binary search, one bucket per tenant.
  tenants_ = cfg_.tenants;
  std::sort(tenants_.begin(), tenants_.end(),
            [](const TenantConfig& a, const TenantConfig& b) {
              return a.id < b.id;
            });
  for (std::size_t i = 1; i < tenants_.size(); ++i)
    SNNSEC_CHECK(tenants_[i - 1].id != tenants_[i].id,
                 "Router: duplicate tenant id " << tenants_[i].id);
  auto make_bucket = [](const TenantConfig& tc) {
    auto b = std::make_unique<Bucket>();
    const double cap =
        tc.burst > 0.0 ? tc.burst : (tc.rate_rps > 0.0 ? tc.rate_rps : 0.0);
    b->cap_utok = static_cast<std::int64_t>(
        cap * static_cast<double>(kUtokPerRequest));
    b->rate_utok_per_us = tc.rate_rps;  // rps tokens/s == utok/us
    b->level_utok.store(b->cap_utok, std::memory_order_relaxed);
    return b;
  };
  auto check_threat = [&](const TenantConfig& tc) {
    SNNSEC_CHECK(tc.threat != Threat::kHostile || groups_.size() >= 3,
                 "Router: hostile tenant " << tc.id
                                           << " needs an ensemble of >= 3 "
                                              "groups, have "
                                           << groups_.size());
  };
  // NOLINTNEXTLINE(snnsec-hot-alloc): startup-time quota-bucket table.
  buckets_.reserve(tenants_.size());
  for (const TenantConfig& tc : tenants_) {
    check_threat(tc);
    // NOLINTNEXTLINE(snnsec-hot-alloc): fills capacity reserved above.
    buckets_.push_back(make_bucket(tc));
  }
  check_threat(cfg_.default_tenant);
  default_bucket_ = make_bucket(cfg_.default_tenant);

  SNNSEC_LOG_INFO("fleet::Router: "
                  << groups_.size() << " groups, low-latency='"
                  << groups_[static_cast<std::size_t>(low_latency_)]->cfg.name
                  << "', hardened='"
                  << groups_[static_cast<std::size_t>(hardened_)]->cfg.name
                  << "', " << tenants_.size() << " tenants");
}

Router::~Router() { stop(); }

void Router::stop() {
  if (stopped_.exchange(true)) return;
  for (auto& g : groups_)
    for (auto& s : g->servers) s->stop();
}

std::int64_t Router::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

const TenantConfig& Router::tenant_config(std::uint64_t id,
                                          std::size_t& index) const {
  const auto it = std::lower_bound(
      tenants_.begin(), tenants_.end(), id,
      [](const TenantConfig& tc, std::uint64_t key) { return tc.id < key; });
  if (it != tenants_.end() && it->id == id) {
    index = static_cast<std::size_t>(it - tenants_.begin());
    return *it;
  }
  index = tenants_.size();
  return cfg_.default_tenant;
}

Threat Router::tenant_threat(std::uint64_t id) const {
  std::size_t idx = 0;
  return tenant_config(id, idx).threat;
}

serve::RequestOptions Router::effective_options(
    const Group& g, const serve::RequestOptions& opt) const {
  serve::RequestOptions eff = opt;
  if (eff.max_steps == 0) eff.max_steps = g.default_max_steps;
  if (eff.deadline_us == 0) eff.deadline_us = g.cfg.default_deadline_us;
  return eff;
}

bool Router::infer_on_group(std::int64_t g, const tensor::Tensor& x,
                            const serve::RequestOptions& opt,
                            serve::InferResult& out) {
  Group& grp = *groups_[static_cast<std::size_t>(g)];
  const serve::RequestOptions eff = effective_options(grp, opt);
  const std::size_t r =
      static_cast<std::size_t>(grp.rr.fetch_add(
          1, std::memory_order_relaxed)) %
      grp.servers.size();
  return grp.servers[r]->infer(x, eff, out);
}

bool Router::infer_ensemble(const tensor::Tensor& x,
                            const serve::RequestOptions& opt,
                            FleetResult& out) {
  const std::size_t n = groups_.size();
  // Guard the two scratch vectors independently: the kReroute path grows
  // cell_results alone, so a reused FleetResult can arrive here with
  // cell_results already sized but cell_ok still empty.
  if (out.cell_results.size() < n) {
    // NOLINTNEXTLINE(snnsec-hot-alloc): first-use scratch growth, reused after
    out.cell_results.resize(n);
  }
  if (out.cell_ok.size() < n) {
    // NOLINTNEXTLINE(snnsec-hot-alloc): first-use scratch growth, reused after
    out.cell_ok.resize(n, 0);
  }
  std::int64_t alive = 0;
  for (std::size_t g = 0; g < n; ++g) {
    out.cell_ok[g] = infer_on_group(static_cast<std::int64_t>(g), x, opt,
                                    out.cell_results[g])
                         ? 1
                         : 0;
    if (out.cell_ok[g] != 0) ++alive;
  }
  out.ensemble = true;
  ensembles_.fetch_add(1, std::memory_order_relaxed);
  if (alive == 0) {
    out.group = -1;
    out.result.status = serve::ResultStatus::kError;
    out.result.pred = -1;
    // NOLINTNEXTLINE(snnsec-hot-alloc): 7-byte literal fits SSO, no heap.
    out.result.error.assign("no cell");
    return false;
  }
  // Majority vote over the surviving cells, O(G^2) with no per-class
  // scratch. Ties break toward the highest-Vth (then longest-T) cell, the
  // structurally hardest one to attack.
  std::size_t winner = n;
  std::int64_t winner_votes = 0;
  bool tie_seen = false;
  for (std::size_t g = 0; g < n; ++g) {
    if (out.cell_ok[g] == 0) continue;
    std::int64_t votes = 0;
    for (std::size_t h = 0; h < n; ++h)
      if (out.cell_ok[h] != 0 &&
          out.cell_results[h].pred == out.cell_results[g].pred)
        ++votes;
    const auto key = [&](std::size_t i) {
      return std::make_pair(groups_[i]->artifact->config().v_th,
                            groups_[i]->artifact->config().time_steps);
    };
    if (winner == n) {
      winner = g;
      winner_votes = votes;
      continue;
    }
    if (out.cell_results[g].pred == out.cell_results[winner].pred) {
      // Same class: keep the strongest (highest-Vth, then longest-T) cell as
      // that class's representative so later tie-breaks compare against it.
      if (key(g) > key(winner)) winner = g;
      continue;
    }
    if (votes > winner_votes) {
      winner = g;
      winner_votes = votes;
      tie_seen = false;
    } else if (votes == winner_votes) {
      tie_seen = true;
      if (key(g) > key(winner)) winner = g;
    }
  }
  out.votes_for = winner_votes;
  out.tie_break = tie_seen;
  if (tie_seen) {
    ensemble_ties_.fetch_add(1, std::memory_order_relaxed);
    SNNSEC_COUNTER_ADD("fleet.ensemble.ties", 1);
  }
  out.group = static_cast<std::int64_t>(winner);
  // Copy (not swap) so cell_results keeps every cell for forensics; the
  // destination buffers are reused, so this is allocation-free after warm.
  out.result = out.cell_results[winner];
  return out.result.status == serve::ResultStatus::kOk;
}

bool Router::infer(std::uint64_t tenant, const tensor::Tensor& x,
                   const serve::RequestOptions& opt, FleetResult& out) {
  const auto t0 = std::chrono::steady_clock::now();
  requests_.fetch_add(1, std::memory_order_relaxed);
  SNNSEC_COUNTER_ADD("fleet.requests", 1);
  out.group = -1;
  out.quota_rejected = false;
  out.rerouted = false;
  out.ensemble = false;
  out.votes_for = 0;
  out.tie_break = false;

  std::size_t ti = 0;
  const TenantConfig& tc = tenant_config(tenant, ti);
  Bucket& bucket =
      ti < buckets_.size() ? *buckets_[ti] : *default_bucket_;
  if (!bucket.try_take(now_us())) {
    quota_rejected_.fetch_add(1, std::memory_order_relaxed);
    SNNSEC_COUNTER_ADD("fleet.quota.rejected", 1);
    out.quota_rejected = true;
    out.result.status = serve::ResultStatus::kRejected;
    out.result.pred = -1;
    out.result.flagged = false;
    // NOLINTNEXTLINE(snnsec-hot-alloc): 5-byte literal fits SSO, no heap.
    out.result.error.assign("quota");
    out.fleet_latency_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    return false;
  }

  bool ok = false;
  switch (tc.threat) {
    case Threat::kTrusted: {
      SNNSEC_COUNTER_ADD("fleet.route.low_latency", 1);
      out.group = low_latency_;
      ok = infer_on_group(low_latency_, x, opt, out.result);
      const Group& grp = *groups_[static_cast<std::size_t>(low_latency_)];
      if (ok && out.result.flagged &&
          grp.cfg.server.detect_policy == serve::DetectPolicy::kReroute &&
          hardened_ != low_latency_) {
        // Detection follow-on: serve the flagged request from the hardened
        // high-Vth cell instead of observing/rejecting.
        rerouted_.fetch_add(1, std::memory_order_relaxed);
        SNNSEC_COUNTER_ADD("fleet.reroute.requests", 1);
        out.rerouted = true;
        if (out.cell_results.size() < groups_.size()) {
          // NOLINTNEXTLINE(snnsec-hot-alloc): first-use scratch, reused after
          out.cell_results.resize(groups_.size());
        }
        serve::InferResult& hard =
            out.cell_results[static_cast<std::size_t>(hardened_)];
        if (infer_on_group(hardened_, x, opt, hard)) {
          std::swap(out.result, hard);  // keeps both score buffers alive
          out.group = hardened_;
          reroute_served_.fetch_add(1, std::memory_order_relaxed);
          SNNSEC_COUNTER_ADD("fleet.reroute.served", 1);
        }
      }
      break;
    }
    case Threat::kSuspect:
      SNNSEC_COUNTER_ADD("fleet.route.hardened", 1);
      out.group = hardened_;
      ok = infer_on_group(hardened_, x, opt, out.result);
      break;
    case Threat::kHostile:
      SNNSEC_COUNTER_ADD("fleet.route.ensemble", 1);
      ok = infer_ensemble(x, opt, out);
      break;
  }

  switch (out.result.status) {
    case serve::ResultStatus::kOk:
      completed_.fetch_add(1, std::memory_order_relaxed);
      SNNSEC_COUNTER_ADD("fleet.completed", 1);
      break;
    case serve::ResultStatus::kRejected:
      shed_.fetch_add(1, std::memory_order_relaxed);
      SNNSEC_COUNTER_ADD("fleet.shed", 1);
      break;
    default:
      errors_.fetch_add(1, std::memory_order_relaxed);
      SNNSEC_COUNTER_ADD("fleet.errors", 1);
      break;
  }
  out.fleet_latency_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - t0)
          .count();
  SNNSEC_HISTOGRAM_OBSERVE("fleet.latency_us",
                           static_cast<double>(out.fleet_latency_us), 100,
                           250, 500, 1000, 2500, 5000, 10000, 25000);
  return ok;
}

RouterStats Router::stats() const {
  RouterStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.quota_rejected = quota_rejected_.load(std::memory_order_relaxed);
  s.rerouted = rerouted_.load(std::memory_order_relaxed);
  s.reroute_served = reroute_served_.load(std::memory_order_relaxed);
  s.ensembles = ensembles_.load(std::memory_order_relaxed);
  s.ensemble_ties = ensemble_ties_.load(std::memory_order_relaxed);
  // NOLINTNEXTLINE(snnsec-hot-alloc): cold operator-facing stats path.
  s.groups.reserve(groups_.size());
  for (const auto& g : groups_) {
    GroupStats gs;
    gs.name = g->cfg.name;
    gs.role = g->cfg.role;
    gs.v_th = g->artifact->config().v_th;
    gs.time_steps = g->artifact->config().time_steps;
    gs.replicas = static_cast<std::int64_t>(g->servers.size());
    for (const auto& srv : g->servers) {
      const serve::ServerStats ss = srv->stats();
      gs.submitted += ss.submitted;
      gs.completed += ss.completed;
      gs.shed += ss.shed;
      gs.errors += ss.errors;
      gs.truncated += ss.truncated;
      gs.flagged += ss.flagged;
      gs.quarantines += ss.quarantines;
      gs.respawns += ss.respawns;
      gs.retries += ss.retries;
    }
    // NOLINTNEXTLINE(snnsec-hot-alloc): cold stats path, reserved above.
    s.groups.push_back(std::move(gs));
  }
  return s;
}

const std::string& Router::group_name(std::int64_t g) const {
  return groups_[static_cast<std::size_t>(g)]->cfg.name;
}

GroupRole Router::group_role(std::int64_t g) const {
  return groups_[static_cast<std::size_t>(g)]->cfg.role;
}

serve::Server& Router::replica(std::int64_t g, std::int64_t r) {
  return *groups_[static_cast<std::size_t>(g)]
              ->servers[static_cast<std::size_t>(r)];
}

std::int64_t Router::replica_count(std::int64_t g) const {
  return static_cast<std::int64_t>(
      groups_[static_cast<std::size_t>(g)]->servers.size());
}

const nn::LenetSpec& Router::arch() const {
  return groups_[0]->artifact->arch();
}

std::int64_t Router::num_classes() const { return arch().num_classes; }

}  // namespace snnsec::fleet
