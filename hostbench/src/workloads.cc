#include "workloads.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "common/random.h"
#include "net/network.h"
#include "net/session_server.h"
#include "workload/workload.h"

namespace viewmat::hostbench {
namespace {

using sim::StrategyDriver;
using workload::Scenario;

// Why each workload exists is recorded in hostbench/README.md.
constexpr WorkloadSpec kWorkloads[] = {
    {"sp_deferred_cached", 1, sim::StrategyKind::kDeferred, 0.1, 4096, false,
     8000.0, 30000, 50, CalibrationKernel::kHeap},
    {"join_immediate_uncached", 2, sim::StrategyKind::kImmediate, 0.9, 128,
     false, 8000.0, 30000, 50, CalibrationKernel::kHeap},
    {"wire_sessions_mixed", 1, sim::StrategyKind::kDeferred, 0.5, 128, true,
     3000.0, 6000, 10, CalibrationKernel::kHeapAndPages},
};

/// Engine recovery checkpoints every 64 commits, so the redo WAL is
/// truncated the way a long-running deployment's would be.
constexpr size_t kCheckpointEvery = 64;

constexpr net::NodeId kServerNode = 0;
constexpr net::NodeId kRefresherNode = 1;
constexpr net::NodeId kFirstClient = 2;
constexpr int kSessions = 4;
constexpr size_t kMaxEvents = size_t{1} << 40;

// Capture caps for the traced pass's replays.
constexpr size_t kCaptureTuples = 20000;
constexpr size_t kCaptureMessages = 20000;
constexpr size_t kCaptureAnswers = 64;

uint64_t OpSeed(uint64_t seed) {
  return (seed * 0x9e3779b97f4a7c15ULL) ^ 0xd1b54a32d192ed03ULL;
}

/// The operation mix: in every block of ten consecutive operations exactly
/// round(10 × update_fraction) are updates, at seeded positions, so every
/// seed runs the same number of each op class.
class OpMix {
 public:
  OpMix(uint64_t seed, double update_fraction)
      : rng_(seed),
        updates_per_block_(static_cast<int>(update_fraction * kBlock + 0.5)) {}

  bool NextIsUpdate() {
    if (pos_ == kBlock) {
      for (int i = 0; i < kBlock; ++i) block_[i] = i < updates_per_block_;
      for (int i = kBlock - 1; i > 0; --i) {
        const uint64_t j = rng_.Uniform(static_cast<uint64_t>(i + 1));
        std::swap(block_[i], block_[j]);
      }
      pos_ = 0;
    }
    return block_[pos_++];
  }

 private:
  static constexpr int kBlock = 10;
  Random rng_;
  int updates_per_block_;
  bool block_[kBlock] = {};
  int pos_ = kBlock;
};

uint64_t TimedOps(const WorkloadSpec& spec, int seconds) {
  return std::max<uint64_t>(
      spec.min_timed_ops,
      static_cast<uint64_t>(spec.ops_per_second * seconds));
}

/// The engine under test: a StrategyDriver, and for the wire workload the
/// SessionServer in front of it on an in-process Network.
struct Engine {
  std::unique_ptr<StrategyDriver> driver;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<net::RefreshDaemon> refresher;
  std::unique_ptr<net::SessionServer> server;

  /// Tears down front to back: the server refers to the driver and network.
  void Reset() {
    server.reset();
    refresher.reset();
    network.reset();
    driver.reset();
  }
};

Status BuildEngine(const WorkloadSpec& spec, uint64_t seed, Engine* e) {
  StrategyDriver::Options d;
  d.kind = spec.kind;
  d.model = spec.model;
  d.params = WorkloadParams(spec);
  d.seed = seed;
  d.checkpoint_every = kCheckpointEvery;
  d.pool_pages = spec.pool_pages;
  VIEWMAT_ASSIGN_OR_RETURN(e->driver, StrategyDriver::Create(d));
  if (!spec.wire) return Status::OK();
  net::Network::Options no;
  no.seed = seed;
  e->network = std::make_unique<net::Network>(no);
  e->refresher =
      std::make_unique<net::RefreshDaemon>(kRefresherNode, e->network.get());
  net::SessionServer::Options so;
  so.driver = e->driver.get();
  so.events = e->network.get();
  so.net = e->network.get();
  so.node = kServerNode;
  so.refresher = kRefresherNode;
  VIEWMAT_ASSIGN_OR_RETURN(e->server, net::SessionServer::Create(so));
  e->network->Register(kServerNode, e->server.get());
  e->network->Register(kRefresherNode, e->refresher.get());
  return Status::OK();
}

/// Builds the engine `setup_builds` times, timing each build with a
/// calibration tick on either side; the last build stays for the run.
Status TimedSetup(const PassOptions& o, Engine* engine, PassResult* r) {
  Calibrator& calib = r->setup_calib;
  calib.Tick();
  for (int i = 0; i < o.setup_builds; ++i) {
    engine->Reset();
    const double t0 = NowNs();
    const Status st = BuildEngine(*o.spec, o.seed, engine);
    const double dt = NowNs() - t0;
    VIEWMAT_RETURN_IF_ERROR(st);
    calib.Tick();
    r->setup_raw_s.push_back(dt * 1e-9);
  }
  return Status::OK();
}

/// Counter snapshots taken where the timed sequence starts.
struct CountBase {
  storage::CostCounters cost;
  storage::AttributedCounters attributed;
  uint64_t wal_syncs = 0;
  uint64_t events = 0;

  static CountBase Take(Engine* e) {
    CountBase b;
    b.cost = e->driver->tracker()->counters();
    b.attributed = e->driver->tracker()->attributed();
    b.wal_syncs = e->driver->pool()->wal_syncs_forced();
    if (e->network != nullptr) b.events = e->network->events_run();
    return b;
  }

  void Finish(const WorkloadSpec& spec, Engine* e, PassResult* r) const {
    StrategyDriver* driver = e->driver.get();
    r->cost = driver->tracker()->counters() - cost;
    r->attributed = driver->tracker()->attributed() - attributed;
    r->model_ms = driver->tracker()->Ms(r->cost);
    r->wal_syncs_forced = driver->pool()->wal_syncs_forced() - wal_syncs;
    if (e->network != nullptr) {
      r->net_events = e->network->events_run() - events;
    }
    r->live_pages = driver->disk()->live_pages();
    r->device_bytes = static_cast<double>(r->live_pages) *
                      static_cast<double>(driver->disk()->page_size());
    const costmodel::Params& p = driver->scenario()->params();
    r->user_bytes = p.N * p.S;
    if (spec.model == 2) {
      r->user_bytes +=
          static_cast<double>(driver->scenario()->r2_count()) * p.S;
    }
  }
};

using Rows = std::vector<std::pair<db::Tuple, int64_t>>;

sim::ViewMultiset ToMultiset(const Rows& rows) {
  sim::ViewMultiset m;
  for (const auto& [t, count] : rows) m[t] += count;
  return m;
}

/// Whether the visited rows form exactly the multiset `want`. Rows arrive
/// in view-key order, one visit per distinct tuple, so they are first
/// compared in step with `want`; any difference is settled by comparing
/// the multisets themselves.
bool SameMultiset(const Rows& rows, const sim::ViewMultiset& want) {
  if (rows.size() == want.size() &&
      std::equal(rows.begin(), rows.end(), want.begin(),
                 [](const auto& row, const auto& entry) {
                   return row.first == entry.first &&
                          row.second == entry.second;
                 })) {
    return true;
  }
  return ToMultiset(rows) == want;
}

bool Refreshed(const storage::CostTracker& tracker,
               const storage::CostCounters& before) {
  return !(tracker.attributed().PhaseTotal(storage::Phase::kRefresh) ==
           before);
}

// ---------------------------------------------------------------------------
// Direct workloads: the benchmark calls StrategyDriver itself.

Status RunDirect(const PassOptions& o, Engine* e, PassResult* r) {
  const WorkloadSpec& spec = *o.spec;
  StrategyDriver* driver = e->driver.get();
  storage::CostTracker* tracker = driver->tracker();
  Scenario* scenario = driver->scenario();
  db::Relation* base = driver->base();
  obs::Tracer* tracer = o.tracer;
  const bool traced = tracer != nullptr;
  const bool deferred = spec.kind == sim::StrategyKind::kDeferred;

  // The benchmark's own oracle, advanced only on acknowledged commits.
  sim::ShadowOracle shadow = sim::MakeShadow(*scenario);
  OpMix mix(OpSeed(o.seed), spec.update_fraction);
  const uint64_t timed = TimedOps(spec, o.seconds);
  const uint64_t warm = timed / 10;
  uint64_t pending = 0;  // AD intents since the last refresh
  Rows rows;
  rows.reserve(4096);
  CountBase count_base;

  for (uint64_t i = 0; i < warm + timed; ++i) {
    const bool timed_op = i >= warm;
    if (i == warm) {
      count_base = CountBase::Take(e);
      r->calib.Tick();
    } else if (timed_op && (i - warm) % spec.slice_ops == 0) {
      r->calib.Tick();
    }
    const bool is_update = mix.NextIsUpdate();
    const obs::ScopedSpan op_span(tracer, is_update ? "op.update" : "op.query");
    ++r->attempted;
    const double g0 = traced ? NowNs() : 0.0;
    if (is_update) {
      db::Transaction txn;
      {
        const obs::ScopedSpan span(tracer, "workload.gen");
        txn = scenario->NextUpdateTransaction(base);
      }
      if (traced && timed_op) r->gen_ns += NowNs() - g0;
      const AllocCounts a0 = AllocSnapshot();
      const double t0 = NowNs();
      Status st;
      {
        const obs::ScopedSpan span(tracer, "engine.txn");
        st = driver->OnTransaction(txn);
      }
      const double dt = NowNs() - t0;
      const AllocCounts da = AllocSnapshot() - a0;
      if (!st.ok()) {
        ++r->failed;
        ++r->errors;
        continue;
      }
      const db::NetChange& net = txn.ChangesFor(base);
      for (const db::Tuple& t : net.inserts()) {
        shadow.v[t.at(Scenario::kFieldK1).AsInt64()] =
            t.at(Scenario::kFieldV).AsDouble();
      }
      if (deferred) pending += net.size();
      if (!timed_op) continue;
      ++r->updates;
      r->alloc_update += da;
      r->samples.push_back({OpKind::kUpdate, false,
                            static_cast<uint32_t>(r->calib.current_slice()),
                            dt});
      if (traced) {
        std::vector<int64_t> keys;
        for (const db::Tuple& t : net.inserts()) {
          keys.push_back(t.at(Scenario::kFieldK1).AsInt64());
        }
        r->capture.ad_key_stream.push_back(std::move(keys));
        for (const auto* set : {&net.deletes(), &net.inserts()}) {
          for (const db::Tuple& t : *set) {
            if (r->capture.base_tuples.size() < kCaptureTuples) {
              r->capture.base_tuples.push_back(t);
            }
          }
        }
      }
    } else {
      Scenario::QueryRange range{};
      {
        const obs::ScopedSpan span(tracer, "workload.gen");
        range = scenario->NextQueryRange();
      }
      if (traced && timed_op) r->gen_ns += NowNs() - g0;
      rows.clear();
      const storage::CostCounters refresh0 =
          tracker->attributed().PhaseTotal(storage::Phase::kRefresh);
      const AllocCounts a0 = AllocSnapshot();
      const double t0 = NowNs();
      Status st;
      {
        const obs::ScopedSpan span(tracer, "engine.query");
        st = driver->Query(range.lo, range.hi,
                           [&rows](const db::Tuple& t, int64_t count) {
                             rows.emplace_back(t, count);
                             return true;
                           });
      }
      const double dt = NowNs() - t0;
      const AllocCounts da = AllocSnapshot() - a0;
      if (!st.ok()) {
        ++r->failed;
        ++r->errors;
        continue;
      }
      const bool refreshed = Refreshed(*tracker, refresh0);
      {
        const obs::ScopedSpan span(tracer, "bench.check");
        ++r->queries_checked;
        if (!SameMultiset(rows, sim::ExpectedRange(shadow, spec.model,
                                                   range.lo, range.hi))) {
          ++r->failed;
          ++r->wrong_answers;
        }
        if (traced && timed_op && r->capture.answers.size() < kCaptureAnswers) {
          r->capture.answers.push_back(ToMultiset(rows));
        }
      }
      if (timed_op) {
        ++r->queries;
        r->alloc_query += da;
        for (const auto& row : rows) r->rows += row.second;
        r->pending_sum += pending;
        if (refreshed) ++r->refreshes;
        r->samples.push_back({OpKind::kQuery, refreshed,
                              static_cast<uint32_t>(r->calib.current_slice()),
                              dt});
        if (traced && refreshed) r->capture.ad_key_stream.emplace_back();
      }
      if (refreshed) pending = 0;
    }
  }
  r->calib.Tick();
  count_base.Finish(spec, e, r);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Wire workload: closed-loop sessions through SessionServer.

class WireLoop;

/// A benchmark-owned client node: hands every frame it receives to the loop.
class ClientEndpoint : public net::Endpoint {
 public:
  ClientEndpoint(WireLoop* loop, net::NodeId node) : loop_(loop), node_(node) {}
  void OnMessage(net::NodeId from, const net::Message& msg) override;

 private:
  WireLoop* loop_;
  net::NodeId node_;
};

class WireLoop {
 public:
  WireLoop(const PassOptions& o, Engine* e, PassResult* r)
      : o_(o),
        spec_(*o.spec),
        e_(e),
        r_(r),
        mix_(OpSeed(o.seed), o.spec->update_fraction),
        rng_(OpSeed(o.seed) + 1) {
    for (int i = 0; i < kSessions; ++i) {
      const net::NodeId node = kFirstClient + static_cast<net::NodeId>(i);
      clients_.push_back(std::make_unique<ClientEndpoint>(this, node));
      e_->network->Register(node, clients_.back().get());
      sessions_[node];
    }
  }

  WireLoop(const WireLoop&) = delete;
  WireLoop& operator=(const WireLoop&) = delete;

  Status Run();
  void OnFrame(net::NodeId node, const net::Message& msg);

 private:
  struct Session {
    uint64_t seq = 0;
    bool busy = false;
    net::Message request;
    double t_send = 0.0;
    double kernel_at_send = 0.0;
  };
  struct CommitRecord {
    uint64_t txn_id = 0;
    std::vector<std::pair<int64_t, double>> victims;
  };
  struct QueryRecord {
    int64_t lo = 0;
    int64_t hi = 0;
    uint64_t digest = 0;
    uint64_t journal_len = 0;
    bool timed = false;
  };

  /// Issues the session's next operation if the phase has any left.
  Status Issue(net::NodeId node);
  /// Runs `ops` operations over all sessions until the event queue drains.
  Status Phase(uint64_t ops, bool timed);
  /// Checks every query digest against the oracle at its journal prefix.
  void CheckAnswers();

  const PassOptions& o_;
  const WorkloadSpec& spec_;
  Engine* e_;
  PassResult* r_;
  OpMix mix_;
  Random rng_;
  std::vector<std::unique_ptr<ClientEndpoint>> clients_;
  std::map<net::NodeId, Session> sessions_;
  uint64_t to_issue_ = 0;
  bool timing_ = false;
  uint64_t completed_ = 0;
  Status issue_error_ = Status::OK();
  std::vector<CommitRecord> commits_;
  std::vector<QueryRecord> queries_;
};

void ClientEndpoint::OnMessage(net::NodeId /*from*/, const net::Message& msg) {
  loop_->OnFrame(node_, msg);
}

Status WireLoop::Issue(net::NodeId node) {
  if (to_issue_ == 0) return Status::OK();
  --to_issue_;
  obs::Tracer* tracer = o_.tracer;
  const obs::ScopedSpan span(tracer, "client.issue");
  Session& s = sessions_[node];
  const double g0 = tracer != nullptr ? NowNs() : 0.0;
  net::Message msg;
  msg.session_id = node;
  msg.seq_no = ++s.seq;
  {
    const obs::ScopedSpan gen_span(tracer, "workload.gen");
    const costmodel::Params& p = e_->driver->scenario()->params();
    if (mix_.NextIsUpdate()) {
      msg.type = net::MsgType::kCommit;
      const int64_t n = static_cast<int64_t>(p.N);
      for (int j = 0; j < static_cast<int>(p.l); ++j) {
        const int64_t key = static_cast<int64_t>(rng_.Uniform(n));
        // Integer deltas of either sign; never zero, so every victim's
        // value really changes.
        const double delta = static_cast<double>(rng_.UniformInt(1, 100)) *
                             (rng_.Bernoulli(0.5) ? 1.0 : -1.0);
        msg.victims.emplace_back(key, delta);
      }
    } else {
      msg.type = net::MsgType::kQuery;
      const Scenario::QueryRange range =
          e_->driver->scenario()->NextQueryRange();
      msg.lo = range.lo;
      msg.hi = range.hi;
    }
  }
  if (tracer != nullptr && timing_) r_->gen_ns += NowNs() - g0;
  if (tracer != nullptr && timing_ &&
      r_->capture.messages.size() < kCaptureMessages) {
    r_->capture.messages.push_back(msg);
  }
  ++r_->attempted;
  s.busy = true;
  s.request = std::move(msg);
  s.kernel_at_send = r_->calib.total_kernel_ns();
  s.t_send = NowNs();
  return e_->network->Send(node, kServerNode, s.request);
}

void WireLoop::OnFrame(net::NodeId node, const net::Message& msg) {
  const double t = NowNs();
  if (msg.type != net::MsgType::kReply) return;
  Session& s = sessions_[node];
  if (!s.busy || msg.seq_no != s.seq) return;  // stray frame: never expected
  s.busy = false;
  const obs::ScopedSpan span(o_.tracer, "client.reply");
  const double latency =
      t - s.t_send - (r_->calib.total_kernel_ns() - s.kernel_at_send);
  const bool is_update = s.request.type == net::MsgType::kCommit;
  if (msg.wstatus != net::WireStatus::kOk) {
    // Shed or rejected: nothing applied, and the op missed its answer.
    ++r_->failed;
  } else if (is_update) {
    commits_.push_back({msg.txn_id, s.request.victims});
  } else {
    queries_.push_back(
        {s.request.lo, s.request.hi, msg.answer_digest, msg.journal_len,
         timing_});
    if (msg.degraded) ++r_->degraded;
  }
  if (timing_) {
    if (is_update) {
      ++r_->updates;
    } else {
      ++r_->queries;
    }
    r_->samples.push_back({is_update ? OpKind::kUpdate : OpKind::kQuery, false,
                           static_cast<uint32_t>(r_->calib.current_slice()),
                           latency});
    if (o_.tracer != nullptr &&
        r_->capture.messages.size() < kCaptureMessages) {
      r_->capture.messages.push_back(msg);
    }
    if (++completed_ % spec_.slice_ops == 0) r_->calib.Tick();
  }
  if (const Status st = Issue(node); !st.ok() && issue_error_.ok()) {
    issue_error_ = st;
  }
}

Status WireLoop::Phase(uint64_t ops, bool timed) {
  to_issue_ = ops;
  timing_ = timed;
  for (auto& [node, session] : sessions_) {
    VIEWMAT_RETURN_IF_ERROR(Issue(node));
  }
  if (!e_->network->RunUntilIdle(kMaxEvents)) {
    return Status::Internal("wire event loop did not drain");
  }
  VIEWMAT_RETURN_IF_ERROR(issue_error_);
  for (const auto& [node, session] : sessions_) {
    if (session.busy) {
      return Status::Internal("a wire request was never answered");
    }
  }
  return Status::OK();
}

Status WireLoop::Run() {
  // Open every session before anything is measured.
  for (const auto& [node, session] : sessions_) {
    net::Message open;
    open.type = net::MsgType::kOpenSession;
    open.session_id = node;
    VIEWMAT_RETURN_IF_ERROR(e_->network->Send(node, kServerNode, open));
  }
  if (!e_->network->RunUntilIdle(kMaxEvents)) {
    return Status::Internal("session open did not drain");
  }
  const uint64_t timed = TimedOps(spec_, o_.seconds);
  VIEWMAT_RETURN_IF_ERROR(Phase(timed / 10, /*timed=*/false));

  const CountBase count_base = CountBase::Take(e_);
  const AllocCounts a0 = AllocSnapshot();
  const AllocCounts k0 = r_->calib.kernel_allocs();
  {
    const obs::ScopedSpan span(o_.tracer, "wire.timed_loop");
    r_->calib.Tick();
    VIEWMAT_RETURN_IF_ERROR(Phase(timed, /*timed=*/true));
    r_->calib.Tick();
  }
  r_->alloc_total = (AllocSnapshot() - a0) - (r_->calib.kernel_allocs() - k0);
  r_->loop_throughput = true;
  count_base.Finish(spec_, e_, r_);

  const net::SessionServer& server = *e_->server;
  r_->shed = server.shed_requests();
  r_->rejected = server.rejected_commits();
  r_->redelivered = server.redelivered_hits();
  CheckAnswers();
  return Status::OK();
}

void WireLoop::CheckAnswers() {
  // Commits apply in transaction-id order; the server's journal is that
  // order, so a query's journal_len names the prefix it must reflect.
  std::sort(commits_.begin(), commits_.end(),
            [](const CommitRecord& a, const CommitRecord& b) {
              return a.txn_id < b.txn_id;
            });
  for (size_t i = 1; i < commits_.size(); ++i) {
    if (commits_[i].txn_id != commits_[i - 1].txn_id + 1) {
      ++r_->failed;  // a gap or duplicate: the journal cannot be replayed
      ++r_->wrong_answers;
      return;
    }
  }
  std::stable_sort(queries_.begin(), queries_.end(),
                   [](const QueryRecord& a, const QueryRecord& b) {
                     return a.journal_len < b.journal_len;
                   });
  sim::ShadowOracle shadow = sim::MakeShadow(*e_->driver->scenario());
  uint64_t applied = 0;
  uint64_t pending = 0;
  uint64_t last_len = 0;
  for (const QueryRecord& q : queries_) {
    while (applied < q.journal_len && applied < commits_.size()) {
      std::set<int64_t> keys;
      for (const auto& [key, delta] : commits_[applied].victims) {
        shadow.v[key] += delta;
        keys.insert(key);
      }
      // Net AD intents: one delete and one insert per distinct victim.
      pending += 2 * keys.size();
      ++applied;
    }
    sim::ViewMultiset want = sim::ExpectedRange(shadow, 1, q.lo, q.hi);
    ++r_->queries_checked;
    if (applied != q.journal_len || net::DigestMultiset(want) != q.digest) {
      ++r_->failed;
      ++r_->wrong_answers;
    }
    // The first query after new commits runs the deferred refresh.
    const bool refreshed = q.journal_len > last_len && pending > 0;
    if (q.timed) {
      for (const auto& entry : want) r_->rows += entry.second;
      r_->pending_sum += pending;
      if (refreshed) ++r_->refreshes;
      if (o_.tracer != nullptr &&
          r_->capture.answers.size() < kCaptureAnswers) {
        r_->capture.answers.push_back(std::move(want));
      }
    }
    if (refreshed) pending = 0;
    last_len = q.journal_len;
  }
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : kWorkloads) names.emplace_back(spec.name);
  return names;
}

costmodel::Params WorkloadParams(const WorkloadSpec& spec) {
  return costmodel::Params().WithUpdateProbability(spec.update_fraction);
}

StatusOr<PassResult> RunPass(const PassOptions& options) {
  PassResult result;
  result.setup_calib = Calibrator(options.spec->calibration);
  result.calib = Calibrator(options.spec->calibration);
  Engine engine;
  VIEWMAT_RETURN_IF_ERROR(TimedSetup(options, &engine, &result));
  if (options.spec->wire) {
    WireLoop loop(options, &engine, &result);
    VIEWMAT_RETURN_IF_ERROR(loop.Run());
  } else {
    VIEWMAT_RETURN_IF_ERROR(RunDirect(options, &engine, &result));
  }
  return result;
}

}  // namespace viewmat::hostbench
