// fleet::Router — robustness-aware request routing over a sharded
// (Vth, T) ensemble.
//
// The paper's structural parameters become a fleet topology: each worker
// group hosts replicas of one (Vth, T) cell, and requests are routed by
// per-tenant threat level:
//
//   kTrusted  -> the low-latency group (low Vth / short window), with its
//                step budget defaulted to the truncation-curve cliff
//                (t ~ 7T/8, BENCH_serve.json: accuracy holds at 14/16 and
//                collapses below) so trusted traffic rides the cheap side
//                of the cliff.
//   kSuspect  -> the hardened group (high Vth / long window), the paper's
//                robust corner of the (Vth, T) grid.
//   kHostile  -> ensemble vote: the request runs on every group and the
//                majority prediction wins (ties -> the highest-Vth cell).
//                An attacker tuned to one cell's surrogate gradients
//                degrades gracefully against the vote.
//
// Layered on top: per-tenant token-bucket admission (quota rejects happen
// before any model work, upstream of the MicroBatcher's shed-at-capacity
// ring) and the PR 6 detection follow-on — when a low-latency group flags
// a request under DetectPolicy::kReroute, the router re-runs it on the
// hardened group and returns that cell's prediction instead of rejecting.
//
// Every group replica is a self-contained serve::Server (submitter threads
// drive its micro-batches), each with its own Supervisor, so
// canaries/quarantine/respawn operate per replica and chaos armed on one
// replica never takes down its group.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/model_cache.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "tensor/tensor.hpp"

namespace snnsec::fleet {

/// Per-tenant threat level, the routing key.
enum class Threat : std::uint8_t {
  kTrusted,  ///< low-latency group
  kSuspect,  ///< hardened high-Vth/high-T group
  kHostile,  ///< ensemble vote across all groups
};

const char* to_string(Threat t);

/// Structural role of a group inside the fleet.
enum class GroupRole : std::uint8_t {
  kLowLatency,  ///< low Vth / short T: cheap, first stop for trusted traffic
  kBalanced,    ///< middle of the (Vth, T) grid; ensemble diversity
  kHardened,    ///< high Vth / high T: the paper's robust corner
};

const char* to_string(GroupRole r);

struct GroupConfig {
  std::string name;
  GroupRole role = GroupRole::kBalanced;
  /// Checkpoint for this group's (Vth, T) cell; ignored when `artifact`
  /// is provided.
  std::string model_path;
  std::shared_ptr<const serve::ModelCache::Artifact> artifact;
  std::int64_t replicas = 1;
  /// Per-replica server settings (batcher, min_steps, detection,
  /// supervision, chaos). model_path is ignored (the group's checkpoint is
  /// used).
  serve::ServerConfig server;
  /// Step budget applied to requests that do not carry their own.
  /// 0 = full window, except for kLowLatency groups where it defaults to
  /// the deadline-cliff budget max(min_steps, 7T/8).
  std::int64_t default_max_steps = 0;
  /// Deadline applied to requests that do not carry their own. 0 = none.
  std::int64_t default_deadline_us = 0;
  /// Chaos hook per replica index (tests/benches): arms faults on a subset
  /// of a group's replicas. Overrides server.chaos_on_batch when non-empty;
  /// entries may be null.
  std::vector<serve::ChaosHook> chaos_per_replica;
};

/// Admission quota. A tenant with burst <= 0 and rate_rps <= 0 is
/// unlimited. Otherwise the bucket holds `burst` tokens (default: one
/// second of rate) refilled at rate_rps; each request costs one token and
/// an empty bucket rejects before any model work. rate_rps == 0 with
/// burst > 0 is a fixed budget that never refills (deterministic tests).
struct TenantConfig {
  std::uint64_t id = 0;
  Threat threat = Threat::kTrusted;
  double rate_rps = 0.0;
  double burst = 0.0;
};

struct RouterConfig {
  std::vector<GroupConfig> groups;
  /// Known tenants; ids must be unique. Looked up by binary search.
  std::vector<TenantConfig> tenants;
  /// Applied to tenant ids not in `tenants` (id field ignored).
  TenantConfig default_tenant;
};

/// Result of one routed request. Reused across calls like InferResult:
/// after the first few requests a polling caller allocates nothing.
struct FleetResult {
  serve::InferResult result;  ///< the answer actually returned to the client
  std::int64_t group = -1;    ///< group that produced `result`
  bool quota_rejected = false;
  bool rerouted = false;  ///< flagged at low-latency, served by hardened
  bool ensemble = false;
  std::int64_t votes_for = 0;  ///< ensemble: votes for the winning class
  bool tie_break = false;      ///< ensemble: highest-Vth cell broke a tie
  std::int64_t fleet_latency_us = 0;  ///< router entry -> exit
  /// Ensemble scratch: per-group cell results, reused across calls.
  std::vector<serve::InferResult> cell_results;
  std::vector<unsigned char> cell_ok;
};

/// Aggregated per-group counters (replica Server stats summed).
struct GroupStats {
  std::string name;
  GroupRole role = GroupRole::kBalanced;
  double v_th = 0.0;
  std::int64_t time_steps = 0;
  std::int64_t replicas = 0;
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
  std::int64_t shed = 0;
  std::int64_t errors = 0;
  std::int64_t truncated = 0;
  std::int64_t flagged = 0;
  std::int64_t quarantines = 0;
  std::int64_t respawns = 0;
  std::int64_t retries = 0;
};

struct RouterStats {
  std::int64_t requests = 0;
  std::int64_t completed = 0;
  std::int64_t errors = 0;
  std::int64_t shed = 0;            ///< cell admission shed seen fleet-wide
  std::int64_t quota_rejected = 0;  ///< token bucket said no
  std::int64_t rerouted = 0;        ///< flagged requests escalated
  std::int64_t reroute_served = 0;  ///< escalations answered by hardened
  std::int64_t ensembles = 0;
  std::int64_t ensemble_ties = 0;
  std::vector<GroupStats> groups;
};

class Router {
 public:
  explicit Router(RouterConfig cfg);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Route one request. Returns true when out.result.status == kOk.
  /// Thread-safe; callers drive the inline micro-batches of whichever
  /// replica they land on.
  bool infer(std::uint64_t tenant, const tensor::Tensor& x,
             const serve::RequestOptions& opt, FleetResult& out);

  /// Stop every replica (drain in-flight requests). Idempotent.
  void stop();

  RouterStats stats() const;

  std::int64_t num_groups() const {
    return static_cast<std::int64_t>(groups_.size());
  }
  std::int64_t low_latency_group() const { return low_latency_; }
  std::int64_t hardened_group() const { return hardened_; }
  const std::string& group_name(std::int64_t g) const;
  GroupRole group_role(std::int64_t g) const;
  /// The group's replica servers (tests: poke supervisors, read stats).
  serve::Server& replica(std::int64_t g, std::int64_t r);
  std::int64_t replica_count(std::int64_t g) const;

  /// Input geometry shared by every cell (validated at construction).
  const nn::LenetSpec& arch() const;
  std::int64_t num_classes() const;
  Threat tenant_threat(std::uint64_t id) const;

 private:
  /// Lock-free token bucket in micro-tokens (1 request = 1e6 utok).
  /// Refill is CAS-racy but never mints more than `cap` and under-refill
  /// only delays admission by one refill step — fine for a quota.
  struct Bucket {
    std::atomic<std::int64_t> level_utok{0};
    std::atomic<std::int64_t> last_refill_us{0};
    std::int64_t cap_utok = 0;     // 0 = unlimited
    double rate_utok_per_us = 0.0; // == rate_rps
    bool try_take(std::int64_t now_us);
  };

  struct Group {
    GroupConfig cfg;
    std::shared_ptr<const serve::ModelCache::Artifact> artifact;
    std::vector<std::unique_ptr<serve::Server>> servers;
    std::int64_t default_max_steps = 0;  // resolved (cliff applied)
    std::atomic<std::uint64_t> rr{0};    // round-robin replica cursor
  };

  bool infer_on_group(std::int64_t g, const tensor::Tensor& x,
                      const serve::RequestOptions& opt,
                      serve::InferResult& out);
  bool infer_ensemble(const tensor::Tensor& x,
                      const serve::RequestOptions& opt, FleetResult& out);
  serve::RequestOptions effective_options(const Group& g,
                                          const serve::RequestOptions& opt)
      const;
  const TenantConfig& tenant_config(std::uint64_t id, std::size_t& index)
      const;
  std::int64_t now_us() const;

  RouterConfig cfg_;
  std::vector<std::unique_ptr<Group>> groups_;
  std::vector<TenantConfig> tenants_;  // sorted by id
  std::vector<std::unique_ptr<Bucket>> buckets_;  // parallel to tenants_
  std::unique_ptr<Bucket> default_bucket_;  // shared by unknown tenants
  std::int64_t low_latency_ = 0;
  std::int64_t hardened_ = 0;
  std::chrono::steady_clock::time_point start_;
  std::atomic<bool> stopped_{false};

  std::atomic<std::int64_t> requests_{0};
  std::atomic<std::int64_t> completed_{0};
  std::atomic<std::int64_t> errors_{0};
  std::atomic<std::int64_t> shed_{0};
  std::atomic<std::int64_t> quota_rejected_{0};
  std::atomic<std::int64_t> rerouted_{0};
  std::atomic<std::int64_t> reroute_served_{0};
  std::atomic<std::int64_t> ensembles_{0};
  std::atomic<std::int64_t> ensemble_ties_{0};
};

}  // namespace snnsec::fleet
