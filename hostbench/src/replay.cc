#include "replay.h"

#include <algorithm>
#include <vector>

#include "hr/ad_file.h"
#include "net/session_server.h"
#include "storage/bloom_filter.h"
#include "workload/workload.h"

namespace viewmat::hostbench {
namespace {

volatile uint64_t g_sink = 0;

/// Calls made per replayed layer: enough that one replay takes tens of
/// milliseconds, so a slow moment of the machine averages out.
constexpr size_t kTargetCalls = 200000;
constexpr size_t kTargetDigests = 400;

size_t Reps(size_t inputs, size_t target) {
  return inputs == 0 ? 0 : std::max<size_t>(1, target / inputs);
}

/// Times `body` (which makes `calls` calls) between two calibration ticks
/// and returns the calibrated time per call.
template <typename Body>
double TimePerCall(obs::Tracer* tracer, const char* span, size_t calls,
                   Body&& body) {
  if (calls == 0) return 0.0;
  Calibrator calib;
  calib.Tick();
  const obs::ScopedSpan s(tracer, span);
  const double t0 = NowNs();
  body();
  const double dt = NowNs() - t0;
  calib.Tick();
  return dt * calib.Factor(0) / static_cast<double>(calls);
}

}  // namespace

ReplayTimes Replay(const WorkloadSpec& spec, uint64_t seed,
                   const Capture& capture, obs::Tracer* tracer) {
  ReplayTimes out;
  const costmodel::Params params = WorkloadParams(spec);
  const workload::Scenario scenario(params, seed);
  const db::Schema schema = scenario.BaseSchema();
  const db::PredicateRef predicate = scenario.ViewPredicate();
  const std::vector<db::Tuple>& tuples = capture.base_tuples;
  const std::vector<size_t> projection = {workload::Scenario::kFieldK1,
                                          workload::Scenario::kFieldV};

  const size_t rec = schema.record_size();
  std::vector<uint8_t> records(tuples.size() * rec);
  const size_t tuple_reps = Reps(tuples.size(), kTargetCalls);
  const size_t tuple_calls = tuple_reps * tuples.size();
  out.serialize_ns = TimePerCall(tracer, "replay.tuple.serialize", tuple_calls,
                                 [&] {
    for (size_t r = 0; r < tuple_reps; ++r) {
      for (size_t i = 0; i < tuples.size(); ++i) {
        tuples[i].Serialize(schema, records.data() + i * rec);
      }
    }
  });
  out.deserialize_ns = TimePerCall(
      tracer, "replay.tuple.deserialize", tuple_calls, [&] {
        uint64_t sum = 0;
        for (size_t r = 0; r < tuple_reps; ++r) {
          for (size_t i = 0; i < tuples.size(); ++i) {
            sum += db::Tuple::Deserialize(schema, records.data() + i * rec)
                       .size();
          }
        }
        g_sink = g_sink + sum;
      });
  out.project_ns = TimePerCall(tracer, "replay.tuple.project", tuple_calls,
                               [&] {
    uint64_t sum = 0;
    for (size_t r = 0; r < tuple_reps; ++r) {
      for (const db::Tuple& t : tuples) sum += t.Project(projection).size();
    }
    g_sink = g_sink + sum;
  });
  out.predicate_ns = TimePerCall(
      tracer, "replay.predicate.evaluate", tuple_calls, [&] {
        uint64_t sum = 0;
        for (size_t r = 0; r < tuple_reps; ++r) {
          for (const db::Tuple& t : tuples) sum += predicate->Evaluate(t);
        }
        g_sink = g_sink + sum;
      });

  // The AD file's Bloom screen, sized as the engine sizes it: each update's
  // keys are probed then added; a refreshing query empties the filter.
  {
    const hr::AdFile::Options ad = sim::TortureAdOptions(params);
    storage::BloomFilter bloom = storage::BloomFilter::ForExpectedKeys(
        ad.expected_keys, ad.bloom_fp_rate);
    size_t probes = 0;
    for (const auto& keys : capture.ad_key_stream) probes += keys.size();
    const size_t reps = Reps(probes, kTargetCalls);
    Calibrator calib;
    calib.Tick();
    const obs::ScopedSpan s(tracer, "replay.bloom.probe");
    double probe_ns = 0.0;
    uint64_t hits = 0;
    for (size_t r = 0; r < reps; ++r) {
      bloom.Clear();
      for (const auto& keys : capture.ad_key_stream) {
        if (keys.empty()) {
          bloom.Clear();
          continue;
        }
        const double t0 = NowNs();
        for (const int64_t key : keys) {
          hits += bloom.MayContain(static_cast<uint64_t>(key));
        }
        probe_ns += NowNs() - t0;
        for (const int64_t key : keys) bloom.Add(static_cast<uint64_t>(key));
      }
    }
    calib.Tick();
    g_sink = g_sink + hits;
    if (probes > 0) {
      out.bloom_probe_ns =
          probe_ns * calib.Factor(0) / static_cast<double>(probes * reps);
    }
  }

  const std::vector<net::Message>& msgs = capture.messages;
  std::vector<std::vector<uint8_t>> frames;
  frames.reserve(msgs.size());
  double bytes = 0.0;
  for (const net::Message& m : msgs) {
    frames.push_back(m.Encode());
    bytes += static_cast<double>(frames.back().size());
  }
  if (!msgs.empty()) out.frame_bytes = bytes / static_cast<double>(msgs.size());
  const size_t msg_reps = Reps(msgs.size(), kTargetCalls);
  const size_t msg_calls = msg_reps * msgs.size();
  out.encode_ns = TimePerCall(tracer, "replay.wire.encode", msg_calls, [&] {
    uint64_t sum = 0;
    for (size_t r = 0; r < msg_reps; ++r) {
      for (const net::Message& m : msgs) sum += m.Encode().size();
    }
    g_sink = g_sink + sum;
  });
  out.decode_ns = TimePerCall(tracer, "replay.wire.decode", msg_calls, [&] {
    uint64_t sum = 0;
    for (size_t r = 0; r < msg_reps; ++r) {
      for (const auto& f : frames) {
        sum += net::Message::Decode(f.data(), f.size()).ok();
      }
    }
    g_sink = g_sink + sum;
  });

  const size_t digest_reps = Reps(capture.answers.size(), kTargetDigests);
  out.digest_us = 1e-3 * TimePerCall(
      tracer, "replay.wire.digest", digest_reps * capture.answers.size(), [&] {
        uint64_t sum = 0;
        for (size_t r = 0; r < digest_reps; ++r) {
          for (const auto& a : capture.answers) sum += net::DigestMultiset(a);
        }
        g_sink = g_sink + sum;
      });
  return out;
}

}  // namespace viewmat::hostbench
