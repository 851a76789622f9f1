#include "serve/fleet.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <sstream>
#include <thread>
#include <tuple>

#include "fault/crc32.h"
#include "kernels/parallel.h"
#include "serve/queue.h"
#include "support/error.h"

namespace hetacc::serve {

namespace {

constexpr long long kInf = std::numeric_limits<long long>::max();

/// The shared digest primitive (stats.h): the fleet hash is a sum of mixed
/// terms, so it does not depend on the order events were folded in.
constexpr std::uint64_t mix64(std::uint64_t x) { return digest_mix64(x); }

/// Globally unique request key for the response digest and the live-copy
/// ledger hedging dedups through.
constexpr std::uint64_t request_key(std::size_t tenant, std::uint64_t id) {
  return ((static_cast<std::uint64_t>(tenant) + 1) << 32) ^ (id + 1);
}

/// One coalesced dispatch: a batch of same-(model, rung) requests ground
/// through a warm pipeline by whichever worker picks it up. The response
/// CRCs come back index-aligned with `seeds`; an empty vector signals an
/// execution error (cannot happen without a fault plan, but accounted as
/// a retry rather than lost). `cancel` is the pipeline cancel token the
/// dispatcher flips when the batch's virtual outcome no longer needs the
/// real work (hedge loser, quarantine drain) — the only dispatcher->worker
/// signal besides the queue itself, and it never carries stats. A non-null
/// `burst` runs the batch on the worker's private twin pipeline with that
/// fault plan installed, never on the shared `bundle`.
struct FleetJob {
  std::size_t model = 0;
  int rung = 0;
  std::shared_ptr<const arch::PrepackBundle> bundle;
  const fault::FaultPlan* burst = nullptr;
  std::vector<std::uint32_t> seeds;
  std::atomic<bool> cancel{false};
  std::promise<std::vector<std::uint32_t>> done;
};

}  // namespace

std::string_view to_string(HealthEvent::Kind k) {
  switch (k) {
    case HealthEvent::Kind::kWedged: return "wedge-struck";
    case HealthEvent::Kind::kCrashed: return "crash-struck";
    case HealthEvent::Kind::kSlowed: return "slow-struck";
    case HealthEvent::Kind::kCorrupted: return "bundle-corrupted";
    case HealthEvent::Kind::kQuarantine: return "quarantine";
    case HealthEvent::Kind::kRespawn: return "respawn";
    case HealthEvent::Kind::kProbe: return "probe";
    case HealthEvent::Kind::kReadmit: return "readmit";
    case HealthEvent::Kind::kProbeFail: return "probe-fail";
    case HealthEvent::Kind::kScrub: return "bundle-scrub";
    case HealthEvent::Kind::kBurst: return "burst-struck";
  }
  return "?";
}

bool TenantStats::operator==(const TenantStats& o) const {
  return name == o.name && submitted == o.submitted &&
         rejected_queue_full == o.rejected_queue_full &&
         shed_deadline == o.shed_deadline && completed == o.completed &&
         failed == o.failed && deadline_misses == o.deadline_misses &&
         completed_degraded == o.completed_degraded &&
         queue_peak == o.queue_peak && latency == o.latency;
}

double ModelStats::mean_batch() const {
  if (batches == 0) return 0.0;
  long long requests = 0;
  for (std::size_t b = 0; b < batch_size_counts.size(); ++b) {
    requests += batch_size_counts[b] * static_cast<long long>(b);
  }
  return static_cast<double>(requests) / static_cast<double>(batches);
}

bool ModelStats::operator==(const ModelStats& o) const {
  return name == o.name && batches == o.batches &&
         batch_size_counts == o.batch_size_counts &&
         rung_completions == o.rung_completions &&
         rung_transitions == o.rung_transitions && scale_ups == o.scale_ups &&
         scale_downs == o.scale_downs && replica_peak == o.replica_peak &&
         cold_spinups == o.cold_spinups && warm_spinups == o.warm_spinups &&
         spinup_cycles == o.spinup_cycles;
}

bool FleetStats::accounted() const {
  for (const TenantStats& t : tenants) {
    if (!t.accounted()) return false;
  }
  return true;
}

long long FleetStats::completed_total() const {
  long long total = 0;
  for (const TenantStats& t : tenants) total += t.completed;
  return total;
}

bool FleetStats::operator==(const FleetStats& o) const {
  return tenants == o.tenants && models == o.models && cache == o.cache &&
         makespan_cycles == o.makespan_cycles &&
         hedges_fired == o.hedges_fired && hedge_wins == o.hedge_wins &&
         quarantines == o.quarantines && probes == o.probes &&
         readmits == o.readmits && requeued == o.requeued &&
         bundles_scrubbed == o.bundles_scrubbed &&
         unrecovered_replicas == o.unrecovered_replicas &&
         retries == o.retries && response_hash == o.response_hash;
}

std::string FleetStats::summary() const {
  std::ostringstream os;
  os << "  tenant                       sub   rej  shed  done  miss   "
        "p50        p99\n";
  for (const TenantStats& t : tenants) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  %-24s %7lld %5lld %5lld %5lld %5lld  %8lld  %9lld\n",
                  t.name.c_str(), t.submitted, t.rejected_queue_full,
                  t.shed_deadline, t.completed, t.deadline_misses,
                  t.latency.p50(), t.latency.p99());
    os << line;
  }
  for (const ModelStats& m : models) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "  model %-16s %6lld batches (mean %.2f)  replicas peak %d  "
                  "scale +%lld/-%lld  spinup %lldc/%lldw (%lld cycles)  "
                  "rung moves %lld\n",
                  m.name.c_str(), m.batches, m.mean_batch(), m.replica_peak,
                  m.scale_ups, m.scale_downs, m.cold_spinups, m.warm_spinups,
                  m.spinup_cycles, m.rung_transitions);
    os << line;
  }
  os << "  cache       " << cache.hits << " hits, " << cache.misses
     << " misses, " << cache.resident_bytes << " bytes resident (peak "
     << cache.peak_resident_bytes << "), " << cache.bytes_saved
     << " bytes saved\n"
     << "  faults      " << quarantines << " quarantines, " << probes
     << " probes, " << readmits << " readmits, " << requeued << " requeued, "
     << hedges_fired << " hedges (" << hedge_wins << " wins), "
     << bundles_scrubbed << " bundles scrubbed, " << unrecovered_replicas
     << " unrecovered, " << retries << " retries\n"
     << "  makespan    " << makespan_cycles << " cycles\n"
     << "  accounted   " << (accounted() ? "yes" : "NO — REQUESTS LOST")
     << "\n";
  return os.str();
}

std::string FleetStats::to_json() const {
  std::ostringstream os;
  os << "{\"tenants\": [";
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const TenantStats& t = tenants[i];
    if (i) os << ", ";
    os << "{\"name\": \"" << t.name << "\", \"submitted\": " << t.submitted
       << ", \"rejected_queue_full\": " << t.rejected_queue_full
       << ", \"shed_deadline\": " << t.shed_deadline
       << ", \"completed\": " << t.completed << ", \"failed\": " << t.failed
       << ", \"deadline_misses\": " << t.deadline_misses
       << ", \"completed_degraded\": " << t.completed_degraded
       << ", \"queue_peak\": " << t.queue_peak
       << ", \"latency_p50\": " << t.latency.p50()
       << ", \"latency_p99\": " << t.latency.p99() << "}";
  }
  os << "], \"models\": [";
  for (std::size_t i = 0; i < models.size(); ++i) {
    const ModelStats& m = models[i];
    if (i) os << ", ";
    os << "{\"name\": \"" << m.name << "\", \"batches\": " << m.batches
       << ", \"batch_size_counts\": [";
    for (std::size_t b = 0; b < m.batch_size_counts.size(); ++b) {
      if (b) os << ", ";
      os << m.batch_size_counts[b];
    }
    os << "], \"rung_completions\": [";
    for (std::size_t r = 0; r < m.rung_completions.size(); ++r) {
      if (r) os << ", ";
      os << m.rung_completions[r];
    }
    os << "], \"rung_transitions\": " << m.rung_transitions
       << ", \"scale_ups\": " << m.scale_ups
       << ", \"scale_downs\": " << m.scale_downs
       << ", \"replica_peak\": " << m.replica_peak
       << ", \"cold_spinups\": " << m.cold_spinups
       << ", \"warm_spinups\": " << m.warm_spinups
       << ", \"spinup_cycles\": " << m.spinup_cycles << "}";
  }
  os << "], \"cache\": {\"hits\": " << cache.hits
     << ", \"misses\": " << cache.misses
     << ", \"evictions\": " << cache.evictions
     << ", \"resident_bytes\": " << cache.resident_bytes
     << ", \"peak_resident_bytes\": " << cache.peak_resident_bytes
     << ", \"bytes_saved\": " << cache.bytes_saved
     << ", \"scrubs\": " << cache.scrubs
     << "}, \"hedges_fired\": " << hedges_fired
     << ", \"hedge_wins\": " << hedge_wins
     << ", \"quarantines\": " << quarantines << ", \"probes\": " << probes
     << ", \"readmits\": " << readmits << ", \"requeued\": " << requeued
     << ", \"bundles_scrubbed\": " << bundles_scrubbed
     << ", \"unrecovered_replicas\": " << unrecovered_replicas;
  // Only a run with execution failures retries; leaving the key out at 0
  // keeps the JSON of every failure-free run unchanged.
  if (retries) os << ", \"retries\": " << retries;
  os << ", \"makespan_cycles\": " << makespan_cycles
     << ", \"response_hash\": " << response_hash << "}";
  return os.str();
}

FleetServer::FleetServer(std::vector<FleetModel> models,
                         std::vector<TenantConfig> tenants, FleetConfig cfg)
    : models_(std::move(models)), tenants_(std::move(tenants)), cfg_(cfg) {
  if (models_.empty()) {
    throw ServeError(ServeError::Reason::kConfig,
                     "fleet needs at least one model");
  }
  if (tenants_.empty()) {
    throw ServeError(ServeError::Reason::kConfig,
                     "fleet needs at least one tenant");
  }
  if (cfg_.batch_setup_frac < 0.0 || cfg_.batch_setup_frac >= 1.0) {
    throw ServeError(ServeError::Reason::kConfig,
                     "batch_setup_frac must be in [0, 1)");
  }
  const AutoscaleConfig& as = cfg_.autoscale;
  if (as.enabled &&
      (as.min_replicas < 1 || as.max_replicas < as.min_replicas ||
       as.up_streak < 1 || as.down_streak < 1 ||
       as.spinup_cold_cycles < 0 || as.spinup_warm_cycles < 0)) {
    throw ServeError(ServeError::Reason::kConfig,
                     "invalid autoscale configuration");
  }
  const HealthConfig& hc = cfg_.health;
  if (hc.enabled && (hc.miss_window < 1 || hc.miss_threshold < 1 ||
                     hc.failure_threshold < 1 || hc.watchdog_factor <= 1.0)) {
    throw ServeError(ServeError::Reason::kConfig,
                     "invalid health configuration (window/thresholds >= 1, "
                     "watchdog_factor > 1)");
  }
  if (cfg_.hedge.enabled && cfg_.hedge.delay_cycles < 0) {
    throw ServeError(ServeError::Reason::kConfig,
                     "hedge delay must be >= 0 cycles");
  }
  if (cfg_.max_retries < 0) {
    throw ServeError(ServeError::Reason::kConfig,
                     "max_retries must be >= 0");
  }
  for (std::size_t mi = 0; mi < models_.size(); ++mi) {
    const FleetModel& m = models_[mi];
    if (m.replicas < 1) {
      throw ServeError(ServeError::Reason::kConfig,
                       "model '" + m.name + "' needs >= 1 initial replica");
    }
    if (m.ladder.rungs.empty() || m.ladder.home >= m.ladder.rungs.size()) {
      throw ServeError(ServeError::Reason::kConfig,
                       "model '" + m.name + "' has an unusable ladder");
    }
    if (m.net.empty() || m.net[0].kind != nn::LayerKind::kInput) {
      throw ServeError(ServeError::Reason::kConfig,
                       "model '" + m.name + "' net must start with input");
    }
    const std::size_t layer_count = m.net.size() - 1;
    for (std::size_t i = 0; i < m.ladder.rungs.size(); ++i) {
      const ServingMode& r = m.ladder.rungs[i];
      if (r.service_cycles <= 0 ||
          (!r.choices.empty() && r.choices.size() != layer_count)) {
        throw ServeError(ServeError::Reason::kConfig,
                         "model '" + m.name + "' rung " + std::to_string(i) +
                             " is malformed");
      }
      if (i > m.ladder.home &&
          r.service_cycles >= m.ladder.rungs[i - 1].service_cycles) {
        throw ServeError(ServeError::Reason::kConfig,
                         "model '" + m.name +
                             "': rungs deeper than home must be strictly "
                             "faster (rung " + std::to_string(i) + " is not)");
      }
    }
  }
  for (const TenantConfig& t : tenants_) {
    if (t.model >= models_.size()) {
      throw ServeError(ServeError::Reason::kConfig,
                       "tenant '" + t.name + "' references model " +
                           std::to_string(t.model) + " of " +
                           std::to_string(models_.size()));
    }
    if (t.weight < 1 || t.queue_capacity < 1 || t.batch_cap < 1 ||
        t.batch_age_cycles < 0 || t.deadline_cycles < 0) {
      throw ServeError(ServeError::Reason::kConfig,
                       "tenant '" + t.name + "' has an invalid config");
    }
  }
}

FleetServer::~FleetServer() = default;

FleetServer single_model_server(FleetModel model, std::size_t queue_capacity,
                                long long deadline_cycles, FleetConfig cfg) {
  TenantConfig t;
  t.name = model.name;
  t.queue_capacity = queue_capacity;
  t.deadline_cycles = deadline_cycles;
  t.batch_cap = 1;
  t.batch_age_cycles = 0;
  std::vector<FleetModel> models;
  models.push_back(std::move(model));
  return FleetServer(std::move(models), {std::move(t)}, cfg);
}

FleetStats FleetServer::run(const std::vector<ArrivalTrace>& traces) {
  return run(traces, fault::FleetFaultPlan{});
}

FleetStats FleetServer::run(const std::vector<ArrivalTrace>& traces,
                            const fault::FleetFaultPlan& plan) {
  if (traces.size() != tenants_.size()) {
    throw ServeError(ServeError::Reason::kConfig,
                     "fleet run wants one trace per tenant (" +
                         std::to_string(tenants_.size()) + "), got " +
                         std::to_string(traces.size()));
  }
  for (std::size_t t = 0; t < traces.size(); ++t) {
    for (std::size_t i = 0; i < traces[t].requests.size(); ++i) {
      if (traces[t].requests[i].id != i) {
        throw ServeError(ServeError::Reason::kConfig,
                         "trace ids must be dense from 0 (tenant '" +
                             tenants_[t].name + "')");
      }
    }
  }
  fault::FleetFaultPlan chaos = plan;
  chaos.normalize();
  for (const fault::FleetFaultEvent& e : chaos.events) {
    if (e.kind == fault::FleetFaultKind::kCorruptBundle &&
        !cfg_.share_prepack) {
      throw ServeError(ServeError::Reason::kConfig,
                       "bundle-corruption faults need share_prepack (the "
                       "per-copy baseline has no shared resident to flip)");
    }
    if (e.kind == fault::FleetFaultKind::kSlow && e.slow_factor <= 1.0) {
      throw ServeError(ServeError::Reason::kConfig,
                       "slow-replica faults need slow_factor > 1");
    }
    if (e.kind == fault::FleetFaultKind::kPipelineBurst &&
        e.burst_until <= e.cycle) {
      throw ServeError(ServeError::Reason::kConfig,
                       "pipeline bursts need burst_until > cycle");
    }
  }

  rung_logs_.assign(models_.size(), {});
  scale_log_.clear();
  health_log_.clear();

  FleetStats stats;
  stats.tenants.resize(tenants_.size());
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    stats.tenants[t].name = tenants_[t].name;
  }
  stats.models.resize(models_.size());
  for (std::size_t m = 0; m < models_.size(); ++m) {
    stats.models[m].name = models_[m].name;
    stats.models[m].rung_completions.assign(models_[m].ladder.rungs.size(),
                                            0);
  }

  // Merged arrival stream, ordered (cycle, tenant, id) — the global event
  // order every run sees regardless of threads.
  struct Arrival {
    long long cycle = 0;
    std::size_t tenant = 0;
    std::uint64_t id = 0;
  };
  std::vector<Arrival> arrivals;
  for (std::size_t t = 0; t < traces.size(); ++t) {
    for (const TraceRequest& r : traces[t].requests) {
      arrivals.push_back({r.arrival_cycle, t, r.id});
    }
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) {
              if (a.cycle != b.cycle) return a.cycle < b.cycle;
              if (a.tenant != b.tenant) return a.tenant < b.tenant;
              return a.id < b.id;
            });

  // ---- Dispatcher state (virtual time; workers never touch any of it). --
  PrepackCache cache(cfg_.share_prepack);

  struct BatchItem {
    std::size_t tenant = 0;
    std::uint64_t id = 0;
    long long arrival = 0;
    int attempt = 1;
    bool downgraded = false;  ///< out of retries: serve on conservative rung
  };
  struct Retry {
    long long eligible = 0;  ///< failure cycle + backoff
    bool woken = false;      ///< its eligibility event already fired
    BatchItem item;
  };
  struct Replica {
    enum class Health : std::uint8_t { kHealthy, kQuarantined, kProbation };
    int id = 0;
    long long busy_until = -1;  ///< -1 = free
    long long ready_at = 0;
    bool spinning = false;  ///< between spawn and its replica-ready event
    bool retired = false;
    // Fault-domain state. The dispatcher *applies* wedge/crash/slow strikes
    // but never reads them for scheduling decisions (it cannot know a
    // replica is sick until the health layer detects it) — except that a
    // wedged/crashed replica's batches simply never complete.
    Health health = Health::kHealthy;
    bool wedged = false;
    bool crashed = false;
    double slow_factor = 1.0;
    long long slow_until = 0;  ///< kInf = until quarantine replaces it
    bool probe_pending = false;  ///< the probation probe is in flight
    std::deque<char> miss_ring;  ///< rolling service-overrun window
    int window_misses = 0;
    int consec_failures = 0;
    std::unique_ptr<RegimeController> regime;
    std::vector<std::unique_ptr<PrepackCache::Lease>> leases;  ///< per rung
  };
  struct ModelState {
    std::vector<Replica> replicas;
    int next_replica_id = 0;
    std::vector<std::size_t> tenant_ids;
    std::vector<long long> deficit;  ///< DRR, aligned with tenant_ids
    std::size_t drr_next = 0;        ///< next tenant_ids slot to visit
    long long batch_timer = kInf;    ///< armed virtual-age close cycle
    std::size_t cap_total = 0;       ///< sum of tenant queue capacities
    std::size_t up_depth = 0, down_depth = 0;  ///< autoscale watermarks
    int up_streak = 0, idle_streak = 0;
    long long last_scale = 0;
    std::vector<long long> service;  ///< per-rung service cycles
    std::deque<BatchItem> rescue;    ///< requeued at quarantine; served first
    std::deque<BatchItem> hedge_q;   ///< hedge copies awaiting a replica
    std::deque<Retry> retry_q;  ///< sorted by (eligible, tenant, id)
    long long backoff_base = 1;  ///< home service / 8
    /// Active pipeline burst striking the home rung, or null.
    const fault::FleetFaultEvent* burst = nullptr;
  };
  std::vector<ModelState> mstate(models_.size());
  std::vector<std::deque<std::uint64_t>> tq(tenants_.size());
  for (std::size_t t = 0; t < tenants_.size(); ++t) {
    ModelState& ms = mstate[tenants_[t].model];
    ms.tenant_ids.push_back(t);
    ms.cap_total += tenants_[t].queue_capacity;
  }
  for (std::size_t m = 0; m < models_.size(); ++m) {
    ModelState& ms = mstate[m];
    if (ms.tenant_ids.empty()) {
      throw ServeError(ServeError::Reason::kConfig,
                       "model '" + models_[m].name + "' has no tenants");
    }
    ms.deficit.assign(ms.tenant_ids.size(), 0);
    ms.up_depth = static_cast<std::size_t>(
        cfg_.autoscale.up_queue_frac *
        static_cast<double>(ms.cap_total));
    ms.down_depth = static_cast<std::size_t>(
        cfg_.autoscale.down_queue_frac *
        static_cast<double>(ms.cap_total));
    for (const ServingMode& r : models_[m].ladder.rungs) {
      ms.service.push_back(r.service_cycles);
    }
    ms.backoff_base = std::max<long long>(
        ms.service[models_[m].ladder.home] / 8, 1);
  }

  struct InFlight {
    long long completion = 0;  ///< kInf while the replica is wedged/crashed
    long long dispatched = 0;
    long long nominal = 0;      ///< svc(b) at the dispatcher's price list
    long long watchdog_at = kInf;
    long long hedge_at = kInf;
    std::size_t model = 0;
    std::size_t replica = 0;  ///< index into mstate[model].replicas
    int rung = 0;
    bool hedged = false;    ///< hedge copies were cloned off this batch
    bool is_hedge = false;  ///< this batch carries hedge copies
    bool is_probe = false;  ///< probation probe batch
    std::vector<BatchItem> items;
    std::unique_ptr<FleetJob> job;
    std::future<std::vector<std::uint32_t>> fut;
  };
  std::vector<InFlight> inflight;
  // Cancelled batches whose real job may still be in the worker pipeline;
  // their promises resolve before the workers join, after which these are
  // safe to destroy. Futures are never read — the virtual outcome already
  // settled without them.
  std::vector<InFlight> zombies;
  // Live-copy ledger for hedging dedup: copies = dispatched duplicates plus
  // queued hedge clones; done = the request's single completion happened.
  // Entries exist only between first dispatch and last copy's resolution,
  // so the map stays O(in-flight), not O(trace).
  struct ReqState {
    int copies = 0;
    bool done = false;
  };
  std::map<std::uint64_t, ReqState> req_state;
  std::size_t next_arrival = 0;
  long long last_completion = 0;

  const auto bundle_key = [&](std::size_t m, int rung) {
    // (model, strategy/rung, datapath): the rung label carries the strategy
    // identity and the datapath mode is a function of the rung's choices.
    return models_[m].name + "/r" + std::to_string(rung);
  };
  const auto acquire_rung = [&](std::size_t m, Replica& rep, int rung,
                                long long now) {
    auto& slot = rep.leases[static_cast<std::size_t>(rung)];
    if (slot) return false;  // already leased; not a cache event
    auto lease = cache.acquire(bundle_key(m, rung), [&] {
      arch::FusionPipeline p(
          models_[m].net, models_[m].ws,
          models_[m].ladder.rungs[static_cast<std::size_t>(rung)].choices);
      return p.shared_prepack();
    });
    const bool hit = lease.hit;
    if (lease.scrubbed) {
      health_log_.push_back({now, HealthEvent::Kind::kScrub, m, rep.id});
    }
    slot = std::make_unique<PrepackCache::Lease>(std::move(lease));
    return hit;
  };
  const auto live_count = [&](const ModelState& ms) {
    int live = 0;
    for (const Replica& r : ms.replicas) {
      if (!r.retired) ++live;
    }
    return live;
  };
  const auto pending_total = [&](const ModelState& ms) {
    std::size_t total = 0;
    for (std::size_t t : ms.tenant_ids) total += tq[t].size();
    return total;
  };
  const auto model_cap = [&](std::size_t m) {
    std::size_t cap = 0;
    for (const std::size_t t : mstate[m].tenant_ids) {
      cap = cap == 0 ? tenants_[t].batch_cap
                     : std::min(cap, tenants_[t].batch_cap);
    }
    return std::max<std::size_t>(cap, 1);
  };

  const auto spawn_replica = [&](std::size_t m, long long now, bool initial) {
    ModelState& ms = mstate[m];
    Replica rep;
    rep.id = ms.next_replica_id++;
    rep.regime = std::make_unique<RegimeController>(
        ms.service.size(), models_[m].ladder.home, ms.cap_total,
        cfg_.regime);
    rep.leases.resize(models_[m].ladder.rungs.size());
    // The home-rung bundle decides cold vs warm: a cold spin-up derives the
    // constants, a warm one adopts the resident copy a peer already built.
    const bool hit = acquire_rung(
        m, rep, static_cast<int>(models_[m].ladder.home), now);
    const long long spinup = hit ? cfg_.autoscale.spinup_warm_cycles
                                 : cfg_.autoscale.spinup_cold_cycles;
    if (hit) {
      ++stats.models[m].warm_spinups;
    } else {
      ++stats.models[m].cold_spinups;
    }
    if (initial) {
      // Initial replicas are pre-warmed before traffic: ready at cycle 0,
      // their (modeled) spin-up happened offline and is not charged.
      rep.ready_at = 0;
    } else {
      rep.ready_at = now + spinup;
      rep.spinning = true;
      stats.models[m].spinup_cycles += spinup;
    }
    ms.replicas.push_back(std::move(rep));
    stats.models[m].replica_peak =
        std::max(stats.models[m].replica_peak, live_count(ms));
  };

  for (std::size_t m = 0; m < models_.size(); ++m) {
    for (int k = 0; k < models_[m].replicas; ++k) {
      spawn_replica(m, 0, /*initial=*/true);
    }
  }

  // ---- Real execution machinery: ONE shared job queue + worker set for
  // the whole fleet. Replicas are virtual-time capacity, not threads — a
  // 32-replica fleet on a 4-core box still runs at most resolve_threads()
  // workers, all drawing kernel parallelism from the one process pool.
  int max_replicas_total = 0;
  for (std::size_t m = 0; m < models_.size(); ++m) {
    max_replicas_total += cfg_.autoscale.enabled
                              ? std::max(cfg_.autoscale.max_replicas,
                                         models_[m].replicas)
                              : models_[m].replicas;
  }
  // Headroom beyond one-batch-per-replica: cancelled (zombie) jobs linger
  // in the queue until a worker pops them, and quarantine bursts can stack
  // a few; the bound only back-pressures the dispatcher, never drops.
  BoundedQueue<FleetJob*> exec_q(
      static_cast<std::size_t>(max_replicas_total) * 2 + 4);
  const int worker_count =
      std::max(1, std::min(kernels::resolve_threads(cfg_.threads),
                           max_replicas_total));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(worker_count));
  for (int w = 0; w < worker_count; ++w) {
    workers.emplace_back([this, &exec_q] {
      // Worker-owned warm pipelines, one per (model, rung) this worker
      // actually serves — every one adopts the dispatcher's shared bundle,
      // so construction skips the pack/transform work entirely.
      std::map<std::pair<std::size_t, int>,
               std::unique_ptr<arch::FusionPipeline>>
          pipes;
      // Burst-struck twins, one per burst plan: private constants, so an
      // installed fault can never reach the bundle peer replicas lease.
      std::map<const fault::FaultPlan*, std::unique_ptr<arch::FusionPipeline>>
          twins;
      FleetJob* job = nullptr;
      while (exec_q.pop(job)) {
        std::vector<std::uint32_t> crcs;
        arch::FusionPipeline* pipe = nullptr;
        try {
          const FleetModel& fm = models_[job->model];
          const ServingMode& mode =
              fm.ladder.rungs[static_cast<std::size_t>(job->rung)];
          if (job->burst) {
            auto& twin = twins[job->burst];
            if (!twin) {
              twin = std::make_unique<arch::FusionPipeline>(fm.net, fm.ws,
                                                            mode.choices);
              twin->install_fault_plan(*job->burst, mode.protect);
            }
            // Every struck batch starts from the same injector state, so
            // its outcome cannot depend on which worker ran what before.
            twin->reset();
            pipe = twin.get();
          } else {
            auto& slot = pipes[{job->model, job->rung}];
            if (!slot) {
              slot = std::make_unique<arch::FusionPipeline>(
                  fm.net, fm.ws, mode.choices, job->bundle);
            }
            pipe = slot.get();
          }
          pipe->set_cancel_token(&job->cancel);
          crcs.reserve(job->seeds.size());
          for (const std::uint32_t seed : job->seeds) {
            nn::Tensor in(fm.net[0].out);
            nn::fill_deterministic(in, seed);
            const nn::Tensor out = pipe->run(in);
            crcs.push_back(fault::crc32_f32(out.data(), out.vec().size()));
          }
        } catch (const std::exception&) {
          // Execution failure OR cooperative cancellation — either way the
          // batch carries no usable CRCs. The dispatcher distinguishes the
          // two by whether it cancelled the job itself.
          crcs.clear();
        }
        if (pipe) pipe->set_cancel_token(nullptr);
        job->done.set_value(std::move(crcs));
      }
    });
  }

  // ---- The discrete-event loop. Event ties resolve fault strikes <
  // completions < replica-ready < watchdog < hedge fire < retry backoff <
  // batch-close timers < arrivals: faults land before anything else observes
  // the cycle, capacity frees and comes online before sickness is judged,
  // detection beats duplication, and admitted work beats new admission.
  // Deterministic batch close rule: dispatch when pending >= the effective
  // cap (min over tenants with queued work) OR the oldest pending request
  // of some tenant has aged past that tenant's budget. Otherwise arm the
  // model's close timer at the earliest such age-out cycle.
  const auto form_batch = [&](std::size_t m,
                              long long now) -> std::vector<BatchItem> {
    ModelState& ms = mstate[m];
    std::size_t avail = 0;
    std::size_t cap = 0;
    long long close_at = kInf;
    for (const std::size_t t : ms.tenant_ids) {
      if (tq[t].empty()) continue;
      avail += tq[t].size();
      cap = cap == 0 ? tenants_[t].batch_cap
                     : std::min(cap, tenants_[t].batch_cap);
      const TraceRequest& front = traces[t].requests[tq[t].front()];
      close_at = std::min(close_at, front.arrival_cycle +
                                        tenants_[t].batch_age_cycles);
    }
    if (avail == 0) return {};
    if (avail < cap && now < close_at) {
      ms.batch_timer = std::min(
          ms.batch_timer == kInf ? close_at : ms.batch_timer, close_at);
      return {};
    }
    // Deficit round-robin over the model's tenants: quantum = weight, cost
    // 1 per request. A drained queue forfeits its deficit (standard DRR),
    // so an idle tenant cannot bank service.
    std::vector<BatchItem> batch;
    const std::size_t T = ms.tenant_ids.size();
    while (batch.size() < cap) {
      bool any = false;
      for (const std::size_t t : ms.tenant_ids) {
        if (!tq[t].empty()) {
          any = true;
          break;
        }
      }
      if (!any) break;
      const std::size_t ti = ms.drr_next;
      const std::size_t t = ms.tenant_ids[ti];
      if (tq[t].empty()) {
        ms.deficit[ti] = 0;
        ms.drr_next = (ti + 1) % T;
        continue;
      }
      ms.deficit[ti] += tenants_[t].weight;
      while (ms.deficit[ti] >= 1 && !tq[t].empty() && batch.size() < cap) {
        const std::uint64_t id = tq[t].front();
        tq[t].pop_front();
        const TraceRequest& req = traces[t].requests[id];
        if (tenants_[t].deadline_cycles > 0 &&
            now > req.arrival_cycle + tenants_[t].deadline_cycles) {
          // Load-shedding: already late at dispatch — free to drop, so it
          // does not consume the tenant's deficit.
          ++stats.tenants[t].shed_deadline;
          continue;
        }
        batch.push_back({t, id, req.arrival_cycle});
        --ms.deficit[ti];
      }
      if (tq[t].empty()) ms.deficit[ti] = 0;
      if (batch.size() >= cap) {
        // Mid-round stop: the pointer stays on a tenant with live deficit
        // and queued work (it resumes first), advances otherwise.
        if (tq[t].empty() || ms.deficit[ti] < 1) ms.drr_next = (ti + 1) % T;
        break;
      }
      ms.drr_next = (ti + 1) % T;
    }
    return batch;
  };

  const auto try_dispatch = [&](std::size_t m, long long now) {
    ModelState& ms = mstate[m];
    while (true) {
      // Free-replica scan: healthy first, then a probation replica whose
      // single probe slot is open (index order == id order, so the pick is
      // a pure function of the virtual schedule).
      int k = -1;
      bool probe = false;
      for (std::size_t i = 0; i < ms.replicas.size(); ++i) {
        const Replica& r = ms.replicas[i];
        if (r.retired || r.spinning || r.busy_until >= 0) continue;
        if (r.health == Replica::Health::kHealthy) {
          k = static_cast<int>(i);
          break;
        }
      }
      if (k < 0) {
        for (std::size_t i = 0; i < ms.replicas.size(); ++i) {
          const Replica& r = ms.replicas[i];
          if (r.retired || r.spinning || r.busy_until >= 0) continue;
          if (r.health == Replica::Health::kProbation && !r.probe_pending) {
            k = static_cast<int>(i);
            probe = true;
            break;
          }
        }
      }
      if (k < 0) return;
      // Batch class priority: quarantine rescues, then hedge copies, then
      // retries whose backoff elapsed, then fresh DRR work. Rescue, hedge
      // and retry batches bypass the close rule — their requests were
      // already admitted and are already late. One batch runs on one rung,
      // so a class stops at the first item whose downgrade flag differs.
      const std::size_t cap = model_cap(m);
      std::vector<BatchItem> batch;
      bool is_hedge = false;
      const auto fits = [&](const BatchItem& it) {
        return batch.size() < cap &&
               (batch.empty() || it.downgraded == batch.front().downgraded);
      };
      const auto shed_if_late = [&](const BatchItem& it) {
        const TenantConfig& tc = tenants_[it.tenant];
        if (tc.deadline_cycles == 0 || now <= it.arrival + tc.deadline_cycles) {
          return false;
        }
        ++stats.tenants[it.tenant].shed_deadline;
        req_state.erase(request_key(it.tenant, it.id));
        return true;
      };
      while (!ms.rescue.empty() && fits(ms.rescue.front())) {
        const BatchItem it = ms.rescue.front();
        ms.rescue.pop_front();
        if (!shed_if_late(it)) batch.push_back(it);
      }
      if (batch.empty()) {
        while (!ms.hedge_q.empty() && fits(ms.hedge_q.front())) {
          const BatchItem it = ms.hedge_q.front();
          ms.hedge_q.pop_front();
          auto st = req_state.find(request_key(it.tenant, it.id));
          if (st == req_state.end() || st->second.done) {
            // The original finished while this copy queued — drop it.
            if (st != req_state.end() && --st->second.copies == 0) {
              req_state.erase(st);
            }
            continue;
          }
          batch.push_back(it);
          is_hedge = true;
        }
      }
      if (batch.empty()) {
        while (!ms.retry_q.empty() && ms.retry_q.front().eligible <= now &&
               fits(ms.retry_q.front().item)) {
          const BatchItem it = ms.retry_q.front().item;
          ms.retry_q.pop_front();
          if (!shed_if_late(it)) batch.push_back(it);
        }
      }
      if (batch.empty()) batch = form_batch(m, now);
      if (batch.empty()) return;
      Replica& rep = ms.replicas[static_cast<std::size_t>(k)];
      const int rung = batch.front().downgraded
                           ? rep.regime->conservative_rung()
                           : rep.regime->rung();
      acquire_rung(m, rep, rung, now);  // deterministic cache event
      const long long service =
          ms.service[static_cast<std::size_t>(rung)];
      const long long setup =
          static_cast<long long>(static_cast<double>(service) *
                                 cfg_.batch_setup_frac);
      const long long nominal =
          setup + static_cast<long long>(batch.size()) * (service - setup);
      // The dispatcher prices the batch at the *nominal* rate — it cannot
      // know the replica is sick. The fault only shows in when (whether)
      // the completion event actually fires.
      long long actual = nominal;
      if (rep.slow_factor > 1.0 && now < rep.slow_until) {
        actual = static_cast<long long>(static_cast<double>(nominal) *
                                        rep.slow_factor);
      }
      InFlight f;
      f.completion =
          (rep.wedged || rep.crashed) ? kInf : now + actual;
      f.dispatched = now;
      f.nominal = nominal;
      f.model = m;
      f.replica = static_cast<std::size_t>(k);
      f.rung = rung;
      f.is_hedge = is_hedge;
      f.items = std::move(batch);
      if (cfg_.health.enabled) {
        f.watchdog_at =
            now + static_cast<long long>(cfg_.health.watchdog_factor *
                                         static_cast<double>(nominal));
      }
      if (cfg_.hedge.enabled && !is_hedge && !probe) {
        f.hedge_at = now + nominal + cfg_.hedge.delay_cycles;
      }
      if (probe) {
        rep.probe_pending = true;
        f.is_probe = true;
        ++stats.probes;
        health_log_.push_back({now, HealthEvent::Kind::kProbe, m, rep.id});
      }
      // Live-copy ledger: hedge copies were already counted at clone time.
      if (!is_hedge) {
        for (const BatchItem& it : f.items) {
          ++req_state[request_key(it.tenant, it.id)].copies;
        }
      }
      f.job = std::make_unique<FleetJob>();
      f.job->model = m;
      f.job->rung = rung;
      f.job->bundle =
          rep.leases[static_cast<std::size_t>(rung)]->bundle;
      // A pipeline burst strikes the home rung only: the conservative and
      // load-descended rungs run on pipelines the burst does not cover.
      if (ms.burst && rung == static_cast<int>(models_[m].ladder.home) &&
          now < ms.burst->burst_until) {
        f.job->burst = &ms.burst->burst_plan;
      }
      for (const BatchItem& it : f.items) {
        f.job->seeds.push_back(
            traces[it.tenant].requests[it.id].input_seed);
      }
      f.fut = f.job->done.get_future();
      rep.busy_until = f.completion;
      ++stats.models[m].batches;
      auto& hist = stats.models[m].batch_size_counts;
      if (hist.size() <= f.items.size()) hist.resize(f.items.size() + 1, 0);
      ++hist[f.items.size()];
      exec_q.push(f.job.get());
      inflight.push_back(std::move(f));
    }
  };

  const auto maybe_scale = [&](std::size_t m, long long now) {
    const AutoscaleConfig& as = cfg_.autoscale;
    if (!as.enabled) return;
    ModelState& ms = mstate[m];
    const int live = live_count(ms);
    if (ms.up_streak >= as.up_streak && live < as.max_replicas &&
        now - ms.last_scale >= as.dwell_cycles) {
      spawn_replica(m, now, /*initial=*/false);
      ++stats.models[m].scale_ups;
      scale_log_.push_back({now, m, true, live + 1});
      ms.up_streak = 0;
      ms.last_scale = now;
      return;
    }
    if (ms.idle_streak >= as.down_streak && live > as.min_replicas &&
        now - ms.last_scale >= as.dwell_cycles) {
      // Retire the youngest free, ready, *healthy* replica; quarantined or
      // probing replicas are mid-recovery and keep their slot.
      for (std::size_t i = ms.replicas.size(); i-- > 0;) {
        Replica& r = ms.replicas[i];
        if (r.retired || r.spinning || r.busy_until >= 0 ||
            r.health != Replica::Health::kHealthy) {
          continue;
        }
        r.retired = true;
        for (auto& lease : r.leases) {
          if (lease) cache.release(*lease);
          lease.reset();
        }
        ++stats.models[m].scale_downs;
        scale_log_.push_back({now, m, false, live - 1});
        ms.idle_streak = 0;
        ms.last_scale = now;
        return;
      }
    }
  };

  // Quarantine: isolate the replica, cancel + rescue its in-flight batch,
  // and respawn it in place through the cold/warm spin-up ledger. The
  // replica-ready event at ready_at moves it to kProbation, where a single
  // probe batch decides readmit or another quarantine.
  const auto quarantine = [&](std::size_t m, std::size_t ki, long long now) {
    ModelState& ms = mstate[m];
    Replica& rep = ms.replicas[ki];
    if (rep.health == Replica::Health::kQuarantined) return;
    ++stats.quarantines;
    health_log_.push_back(
        {now, HealthEvent::Kind::kQuarantine, m, rep.id});
    for (std::size_t i = 0; i < inflight.size();) {
      InFlight& f = inflight[i];
      if (f.model != m || f.replica != ki) {
        ++i;
        continue;
      }
      f.job->cancel.store(true, std::memory_order_relaxed);
      for (const BatchItem& it : f.items) {
        auto st = req_state.find(request_key(it.tenant, it.id));
        if (--st->second.copies == 0) {
          if (st->second.done) {
            req_state.erase(st);
          } else {
            // No other copy will complete this request: rescue it. It goes
            // back through dispatch (and its deadline check) — never lost.
            ms.rescue.push_back(it);
            ++stats.requeued;
          }
        }
      }
      zombies.push_back(std::move(f));
      inflight.erase(inflight.begin() + static_cast<long>(i));
    }
    // Fresh incarnation: the fault dies with the old one.
    rep.wedged = false;
    rep.crashed = false;
    rep.slow_factor = 1.0;
    rep.slow_until = 0;
    rep.busy_until = -1;
    rep.probe_pending = false;
    rep.miss_ring.clear();
    rep.window_misses = 0;
    rep.consec_failures = 0;
    rep.health = Replica::Health::kQuarantined;
    for (auto& lease : rep.leases) {
      if (lease) cache.release(*lease);
      lease.reset();
    }
    const bool hit = acquire_rung(
        m, rep, static_cast<int>(models_[m].ladder.home), now);
    const long long spinup = hit ? cfg_.autoscale.spinup_warm_cycles
                                 : cfg_.autoscale.spinup_cold_cycles;
    if (hit) {
      ++stats.models[m].warm_spinups;
    } else {
      ++stats.models[m].cold_spinups;
    }
    stats.models[m].spinup_cycles += spinup;
    rep.ready_at = now + spinup;
    rep.spinning = true;
  };

  // Retry with backoff: base << (attempt - 1), capped at 4 x base. The
  // attempt after the last home-rung retry is downgraded onto the
  // conservative rung.
  const auto schedule_retry = [&](std::size_t m, BatchItem it, long long now) {
    ModelState& ms = mstate[m];
    ++stats.retries;
    Retry r;
    r.eligible = now + (ms.backoff_base << std::min(it.attempt - 1, 2));
    it.downgraded = it.attempt > cfg_.max_retries;
    ++it.attempt;
    r.item = it;
    const auto key = [](const Retry& x) {
      return std::tie(x.eligible, x.item.tenant, x.item.id);
    };
    ms.retry_q.insert(
        std::upper_bound(ms.retry_q.begin(), ms.retry_q.end(), r,
                         [&](const Retry& a, const Retry& b) {
                           return key(a) < key(b);
                         }),
        r);
  };

  const auto handle_completion = [&](InFlight f) {
    const long long now = f.completion;
    last_completion = std::max(last_completion, now);
    std::vector<std::uint32_t> crcs = f.fut.get();  // may still be running
    ModelState& ms = mstate[f.model];
    Replica& rep = ms.replicas[f.replica];
    rep.busy_until = -1;
    const bool ok = crcs.size() == f.items.size();
    const int home = static_cast<int>(models_[f.model].ladder.home);
    long long delivered = 0;
    for (std::size_t i = 0; i < f.items.size(); ++i) {
      const BatchItem& it = f.items[i];
      TenantStats& ts = stats.tenants[it.tenant];
      auto st_it = req_state.find(request_key(it.tenant, it.id));
      ReqState& st = st_it->second;
      --st.copies;
      if (!ok) {
        // Failed execution of the request's last live copy: retry while the
        // home-rung budget lasts, then once on the conservative rung. A
        // failure anywhere else is terminal.
        if (st.copies == 0) {
          if (!st.done) {
            if (f.rung != home || it.downgraded) {
              ++ts.failed;
            } else {
              schedule_retry(f.model, it, now);
            }
          }
          req_state.erase(st_it);
        }
        continue;
      }
      if (st.done) {
        // Hedge race loser: the request already completed elsewhere. Dedup
        // keeps accounted() exact and the digest single-voiced.
        if (st.copies == 0) req_state.erase(st_it);
        continue;
      }
      st.done = true;
      ++delivered;
      const long long lat = now - it.arrival;
      ++ts.completed;
      ts.latency.record(lat);
      if (f.rung != home) ++ts.completed_degraded;
      if (f.is_hedge) ++stats.hedge_wins;
      stats.response_hash += mix64(
          request_key(it.tenant, it.id) * 0x9E3779B97F4A7C15ull ^ crcs[i]);
      const bool late = tenants_[it.tenant].deadline_cycles > 0 &&
                        lat > tenants_[it.tenant].deadline_cycles;
      if (late) ++ts.deadline_misses;
      rep.regime->observe_completion(now, late);
      if (st.copies == 0) req_state.erase(st_it);
    }
    if (ok) {
      stats.models[f.model]
          .rung_completions[static_cast<std::size_t>(f.rung)] += delivered;
    }

    if (f.is_probe) {
      rep.probe_pending = false;
      const bool overran = now - f.dispatched > f.nominal;
      if (ok && !overran) {
        rep.health = Replica::Health::kHealthy;
        rep.miss_ring.clear();
        rep.window_misses = 0;
        rep.consec_failures = 0;
        ++stats.readmits;
        health_log_.push_back(
            {now, HealthEvent::Kind::kReadmit, f.model, rep.id});
      } else {
        health_log_.push_back(
            {now, HealthEvent::Kind::kProbeFail, f.model, rep.id});
        quarantine(f.model, f.replica, now);
      }
    } else if (cfg_.health.enabled &&
               rep.health == Replica::Health::kHealthy) {
      if (!ok) {
        if (++rep.consec_failures >= cfg_.health.failure_threshold) {
          quarantine(f.model, f.replica, now);
        }
      } else {
        rep.consec_failures = 0;
        // Replica-attributable miss: the batch overran its nominal svc(b).
        // Honest replicas complete exactly on time in virtual time, so the
        // window only ever fills on a sick one.
        const bool overran = now - f.dispatched > f.nominal;
        rep.miss_ring.push_back(overran ? 1 : 0);
        if (overran) ++rep.window_misses;
        if (static_cast<int>(rep.miss_ring.size()) >
            cfg_.health.miss_window) {
          if (rep.miss_ring.front()) --rep.window_misses;
          rep.miss_ring.pop_front();
        }
        if (rep.window_misses >= cfg_.health.miss_threshold) {
          quarantine(f.model, f.replica, now);
        }
      }
    }

    if (cfg_.autoscale.enabled && pending_total(ms) == 0) {
      ++ms.idle_streak;
      ms.up_streak = 0;
    }
    maybe_scale(f.model, now);
  };

  // A batch whose every request already completed elsewhere (its hedges all
  // won) is pure waste: cancel the real work and free the replica now.
  // Wedged/crashed replicas stay busy — there is nothing to free — and
  // probes run to completion (probation needs their verdict).
  const auto reap_deduped = [&](long long now) {
    for (std::size_t i = 0; i < inflight.size();) {
      InFlight& f = inflight[i];
      const Replica& rep = mstate[f.model].replicas[f.replica];
      if (f.is_probe || rep.wedged || rep.crashed) {
        ++i;
        continue;
      }
      bool all_done = !f.items.empty();
      for (const BatchItem& it : f.items) {
        auto st = req_state.find(request_key(it.tenant, it.id));
        if (st == req_state.end() || !st->second.done) {
          all_done = false;
          break;
        }
      }
      if (!all_done) {
        ++i;
        continue;
      }
      f.job->cancel.store(true, std::memory_order_relaxed);
      for (const BatchItem& it : f.items) {
        auto st = req_state.find(request_key(it.tenant, it.id));
        if (st != req_state.end() && --st->second.copies == 0) {
          req_state.erase(st);
        }
      }
      const std::size_t m = f.model;
      mstate[m].replicas[f.replica].busy_until = -1;
      zombies.push_back(std::move(f));
      inflight.erase(inflight.begin() + static_cast<long>(i));
      try_dispatch(m, now);
    }
  };

  const auto find_replica = [&](std::size_t m, int id) -> int {
    const ModelState& ms = mstate[m];
    for (std::size_t i = 0; i < ms.replicas.size(); ++i) {
      if (ms.replicas[i].id == id) return static_cast<int>(i);
    }
    return -1;
  };
  const auto apply_fault = [&](const fault::FleetFaultEvent& e) {
    const long long now = e.cycle;
    if (e.model >= models_.size()) return;
    if (e.kind == fault::FleetFaultKind::kPipelineBurst) {
      mstate[e.model].burst = &e;
      health_log_.push_back({now, HealthEvent::Kind::kBurst, e.model, -1});
      return;
    }
    if (e.kind == fault::FleetFaultKind::kCorruptBundle) {
      const int rung = e.rung < 0
                           ? static_cast<int>(models_[e.model].ladder.home)
                           : e.rung;
      if (rung >= static_cast<int>(models_[e.model].ladder.rungs.size())) {
        return;
      }
      if (cache.corrupt_resident(bundle_key(e.model, rung))) {
        health_log_.push_back(
            {now, HealthEvent::Kind::kCorrupted, e.model, -1});
      }
      return;
    }
    const int ki = find_replica(e.model, e.replica);
    if (ki < 0) return;
    Replica& rep = mstate[e.model].replicas[static_cast<std::size_t>(ki)];
    if (rep.retired || rep.spinning ||
        rep.health != Replica::Health::kHealthy) {
      return;  // already out of service — the strike is a no-op
    }
    switch (e.kind) {
      case fault::FleetFaultKind::kWedge:
        rep.wedged = true;
        health_log_.push_back(
            {now, HealthEvent::Kind::kWedged, e.model, rep.id});
        // The in-flight batch will never virtually complete; only the
        // watchdog (or a hedge) can save its requests now.
        for (InFlight& f : inflight) {
          if (f.model == e.model &&
              f.replica == static_cast<std::size_t>(ki)) {
            f.completion = kInf;
          }
        }
        if (rep.busy_until >= 0) rep.busy_until = kInf;
        break;
      case fault::FleetFaultKind::kSlow:
        rep.slow_factor = e.slow_factor;
        rep.slow_until =
            e.slow_duration > 0 ? now + e.slow_duration : kInf;
        health_log_.push_back(
            {now, HealthEvent::Kind::kSlowed, e.model, rep.id});
        break;
      case fault::FleetFaultKind::kCrash:
        rep.crashed = true;
        health_log_.push_back(
            {now, HealthEvent::Kind::kCrashed, e.model, rep.id});
        if (cfg_.health.enabled) {
          // The virtual machine-check: detection is immediate.
          quarantine(e.model, static_cast<std::size_t>(ki), now);
          try_dispatch(e.model, now);
        } else {
          for (InFlight& f : inflight) {
            if (f.model == e.model &&
                f.replica == static_cast<std::size_t>(ki)) {
              f.completion = kInf;
            }
          }
          if (rep.busy_until >= 0) rep.busy_until = kInf;
        }
        break;
      case fault::FleetFaultKind::kCorruptBundle:
      case fault::FleetFaultKind::kPipelineBurst:
        break;  // handled above
    }
  };

  const std::size_t n_arrivals = arrivals.size();
  std::size_t next_fault = 0;
  const auto queues_empty = [&] {
    for (const auto& q : tq) {
      if (!q.empty()) return false;
    }
    for (const ModelState& ms : mstate) {
      if (!ms.rescue.empty() || !ms.hedge_q.empty() || !ms.retry_q.empty()) {
        return false;
      }
    }
    return true;
  };
  const auto any_spinning = [&] {
    for (const ModelState& ms : mstate) {
      for (const Replica& r : ms.replicas) {
        if (r.spinning) return true;
      }
    }
    return false;
  };

  try {
    while (next_arrival < n_arrivals || !inflight.empty() ||
           !queues_empty() || any_spinning()) {
      const long long t_fault = next_fault < chaos.events.size()
                                    ? chaos.events[next_fault].cycle
                                    : kInf;
      const long long t_arr = next_arrival < n_arrivals
                                  ? arrivals[next_arrival].cycle
                                  : kInf;
      long long t_comp = kInf;
      long long t_watch = kInf;
      long long t_hedge = kInf;
      for (const InFlight& f : inflight) {
        t_comp = std::min(t_comp, f.completion);
        t_watch = std::min(t_watch, f.watchdog_at);
        if (!f.hedged) t_hedge = std::min(t_hedge, f.hedge_at);
      }
      long long t_ready = kInf;
      for (const ModelState& ms : mstate) {
        for (const Replica& r : ms.replicas) {
          if (r.spinning) t_ready = std::min(t_ready, r.ready_at);
        }
      }
      long long t_timer = kInf;
      long long t_retry = kInf;
      for (const ModelState& ms : mstate) {
        t_timer = std::min(t_timer, ms.batch_timer);
        for (const Retry& r : ms.retry_q) {
          if (!r.woken) t_retry = std::min(t_retry, r.eligible);
        }
      }

      if (t_fault < kInf && t_fault <= t_comp && t_fault <= t_ready &&
          t_fault <= t_watch && t_fault <= t_hedge && t_fault <= t_retry &&
          t_fault <= t_timer && t_fault <= t_arr) {
        apply_fault(chaos.events[next_fault]);
        ++next_fault;
      } else if (t_comp < kInf && t_comp <= t_ready && t_comp <= t_watch &&
                 t_comp <= t_hedge && t_comp <= t_retry &&
                 t_comp <= t_timer && t_comp <= t_arr) {
        // Earliest completion; ties broken by (model, replica, first item)
        // so the pick order is a pure function of the virtual schedule.
        std::size_t best = 0;
        for (std::size_t i = 1; i < inflight.size(); ++i) {
          const InFlight& a = inflight[i];
          const InFlight& b = inflight[best];
          if (a.completion < b.completion ||
              (a.completion == b.completion &&
               (a.model < b.model ||
                (a.model == b.model && a.replica < b.replica)))) {
            best = i;
          }
        }
        InFlight f = std::move(inflight[best]);
        inflight.erase(inflight.begin() + static_cast<long>(best));
        const std::size_t m = f.model;
        handle_completion(std::move(f));
        reap_deduped(t_comp);
        try_dispatch(m, t_comp);
      } else if (t_ready < kInf && t_ready <= t_watch &&
                 t_ready <= t_hedge && t_ready <= t_retry &&
                 t_ready <= t_timer && t_ready <= t_arr) {
        std::size_t best_m = 0;
        int best_r = -1;
        for (std::size_t m = 0; m < mstate.size() && best_r < 0; ++m) {
          for (const Replica& r : mstate[m].replicas) {
            if (r.spinning && r.ready_at == t_ready) {
              best_m = m;
              best_r = r.id;
              break;
            }
          }
        }
        for (Replica& r : mstate[best_m].replicas) {
          if (r.id != best_r) continue;
          r.spinning = false;
          if (r.health == Replica::Health::kQuarantined) {
            // Respawn finished: single-probe probation begins.
            r.health = Replica::Health::kProbation;
            health_log_.push_back(
                {t_ready, HealthEvent::Kind::kRespawn, best_m, r.id});
          }
        }
        try_dispatch(best_m, t_ready);
      } else if (t_watch < kInf && t_watch <= t_hedge &&
                 t_watch <= t_retry && t_watch <= t_timer &&
                 t_watch <= t_arr) {
        // Watchdog: a batch overdue past watchdog_factor x nominal means
        // its replica wedged. Quarantine cancels + rescues the batch.
        std::size_t best = inflight.size();
        for (std::size_t i = 0; i < inflight.size(); ++i) {
          const InFlight& f = inflight[i];
          if (f.watchdog_at != t_watch) continue;
          if (best == inflight.size() ||
              f.model < inflight[best].model ||
              (f.model == inflight[best].model &&
               f.replica < inflight[best].replica)) {
            best = i;
          }
        }
        const std::size_t m = inflight[best].model;
        const std::size_t ki = inflight[best].replica;
        quarantine(m, ki, t_watch);
        try_dispatch(m, t_watch);
      } else if (t_hedge < kInf && t_hedge <= t_retry &&
                 t_hedge <= t_timer && t_hedge <= t_arr) {
        // Hedge fire: clone the straggling batch's unfinished requests onto
        // the model's hedge queue; the next free replica picks them up.
        std::size_t best = inflight.size();
        for (std::size_t i = 0; i < inflight.size(); ++i) {
          const InFlight& f = inflight[i];
          if (f.hedged || f.hedge_at != t_hedge) continue;
          if (best == inflight.size() ||
              f.model < inflight[best].model ||
              (f.model == inflight[best].model &&
               f.replica < inflight[best].replica)) {
            best = i;
          }
        }
        InFlight& f = inflight[best];
        f.hedged = true;
        ModelState& ms = mstate[f.model];
        for (const BatchItem& it : f.items) {
          auto st = req_state.find(request_key(it.tenant, it.id));
          if (st == req_state.end() || st->second.done) continue;
          ++st->second.copies;
          ms.hedge_q.push_back(it);
          ++stats.hedges_fired;
        }
        try_dispatch(f.model, t_hedge);
      } else if (t_retry < kInf && t_retry <= t_timer && t_retry <= t_arr) {
        // Backoff elapsed: the retries become eligible for dispatch. If no
        // replica is free now, the next completion or readiness picks them.
        for (std::size_t m = 0; m < mstate.size(); ++m) {
          bool woke = false;
          for (Retry& r : mstate[m].retry_q) {
            if (!r.woken && r.eligible == t_retry) {
              r.woken = true;
              woke = true;
            }
          }
          if (woke) try_dispatch(m, t_retry);
        }
      } else if (t_timer < kInf && t_timer <= t_arr) {
        for (std::size_t m = 0; m < mstate.size(); ++m) {
          if (mstate[m].batch_timer == t_timer) {
            mstate[m].batch_timer = kInf;
            try_dispatch(m, t_timer);
            break;  // one timer event per loop turn keeps ordering simple
          }
        }
      } else if (t_arr < kInf) {
        const Arrival& a = arrivals[next_arrival];
        ++next_arrival;
        const std::size_t t = a.tenant;
        const std::size_t m = tenants_[t].model;
        ModelState& ms = mstate[m];
        TenantStats& ts = stats.tenants[t];
        ++ts.submitted;
        if (tq[t].size() >= tenants_[t].queue_capacity) {
          ++ts.rejected_queue_full;
        } else {
          tq[t].push_back(a.id);
          ts.queue_peak = std::max(ts.queue_peak,
                                   static_cast<long long>(tq[t].size()));
        }
        const std::size_t depth = pending_total(ms);
        for (Replica& r : ms.replicas) {
          if (!r.retired) r.regime->observe_queue(a.cycle, depth);
        }
        if (cfg_.autoscale.enabled) {
          if (depth >= std::max<std::size_t>(ms.up_depth, 1)) {
            ++ms.up_streak;
            ms.idle_streak = 0;
          } else if (depth <= ms.down_depth) {
            ++ms.idle_streak;
            ms.up_streak = 0;
          } else {
            ms.up_streak = 0;
            ms.idle_streak = 0;
          }
          maybe_scale(m, a.cycle);
        }
        try_dispatch(m, a.cycle);
      } else {
        // No event can fire: only wedged batches (health + hedging both
        // off) remain. Their requests are lost — the accounting surfaces
        // it — but the real jobs must still resolve before the join.
        break;
      }
    }
  } catch (...) {
    for (InFlight& f : inflight) {
      f.job->cancel.store(true, std::memory_order_relaxed);
    }
    exec_q.close();
    for (auto& w : workers) w.join();
    throw;
  }

  for (InFlight& f : inflight) {
    f.job->cancel.store(true, std::memory_order_relaxed);
    zombies.push_back(std::move(f));
  }
  inflight.clear();

  exec_q.close();
  for (auto& w : workers) w.join();
  // Workers have drained the queue: every zombie promise is resolved, so
  // the zombie jobs (and their unread futures) are safe to destroy now.
  zombies.clear();

  for (std::size_t m = 0; m < models_.size(); ++m) {
    for (const Replica& r : mstate[m].replicas) {
      if (!r.retired && (r.health != Replica::Health::kHealthy ||
                         r.wedged || r.crashed)) {
        ++stats.unrecovered_replicas;
      }
    }
  }

  // Fold the rung timelines — plus the scale and fault-domain timelines —
  // into the digest.
  for (std::size_t m = 0; m < models_.size(); ++m) {
    ModelState& ms = mstate[m];
    rung_logs_[m].resize(static_cast<std::size_t>(ms.next_replica_id));
    for (Replica& r : ms.replicas) {
      rung_logs_[m][static_cast<std::size_t>(r.id)] = r.regime->log();
      stats.models[m].rung_transitions +=
          static_cast<long long>(r.regime->log().size());
      for (const RungTransition& t : r.regime->log()) {
        stats.response_hash += mix64(
            static_cast<std::uint64_t>(t.cycle) * 0x2545F4914F6CDD1Dull ^
            (static_cast<std::uint64_t>(m + 1) << 40) ^
            (static_cast<std::uint64_t>(static_cast<unsigned>(r.id)) << 32) ^
            (static_cast<std::uint64_t>(static_cast<unsigned>(t.from))
             << 24) ^
            (static_cast<std::uint64_t>(static_cast<unsigned>(t.to))
             << 16) ^
            static_cast<std::uint64_t>(static_cast<unsigned>(t.reason)));
      }
    }
  }
  for (const ScaleEvent& e : scale_log_) {
    stats.response_hash += mix64(
        static_cast<std::uint64_t>(e.cycle) * 0xD1B54A32D192ED03ull ^
        (static_cast<std::uint64_t>(e.model + 1) << 8) ^
        (e.up ? 0x100u : 0u) ^
        static_cast<std::uint64_t>(static_cast<unsigned>(e.replicas_after)));
  }
  for (const HealthEvent& e : health_log_) {
    stats.response_hash += mix64(
        static_cast<std::uint64_t>(e.cycle) * 0x9FB21C651E98DF25ull ^
        (static_cast<std::uint64_t>(e.model + 1) << 20) ^
        (static_cast<std::uint64_t>(static_cast<unsigned>(e.replica + 2))
         << 8) ^
        static_cast<std::uint64_t>(static_cast<unsigned>(e.kind)));
  }

  stats.makespan_cycles = last_completion;
  stats.cache = cache.stats();  // snapshot with live leases still resident
  stats.bundles_scrubbed = stats.cache.scrubs;
  stats.response_hash += mix64(
      static_cast<std::uint64_t>(stats.hedges_fired) * 0xD6E8FEB86659FD93ull ^
      (static_cast<std::uint64_t>(stats.hedge_wins) << 40) ^
      (static_cast<std::uint64_t>(stats.quarantines) << 24) ^
      (static_cast<std::uint64_t>(stats.probes) << 12) ^
      static_cast<std::uint64_t>(stats.readmits));
  stats.response_hash += mix64(
      static_cast<std::uint64_t>(stats.requeued) * 0xA0761D6478BD642Full ^
      (static_cast<std::uint64_t>(stats.bundles_scrubbed) << 8) ^
      static_cast<std::uint64_t>(stats.unrecovered_replicas) ^
      (static_cast<std::uint64_t>(stats.retries) << 32));
  return stats;
}

}  // namespace hetacc::serve
