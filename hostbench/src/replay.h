#ifndef HOSTBENCH_REPLAY_H_
#define HOSTBENCH_REPLAY_H_

#include "obs/trace.h"
#include "workloads.h"

namespace viewmat::hostbench {

/// Per-call host times of single layers, measured by replaying a traced
/// pass's captured inputs through each layer's public API. Times are
/// calibrated (see Calibrator); 0 where the workload captured no input of
/// that kind.
struct ReplayTimes {
  double serialize_ns = 0.0;    ///< db::Tuple::Serialize
  double deserialize_ns = 0.0;  ///< db::Tuple::Deserialize
  double project_ns = 0.0;      ///< db::Tuple::Project onto the view columns
  double predicate_ns = 0.0;    ///< db::Predicate::Evaluate, view predicate
  double bloom_probe_ns = 0.0;  ///< storage::BloomFilter::MayContain, AD-sized
  double encode_ns = 0.0;       ///< net::Message::Encode
  double decode_ns = 0.0;       ///< net::Message::Decode
  double digest_us = 0.0;       ///< net::DigestMultiset per answer
  double frame_bytes = 0.0;     ///< mean encoded message size
};

ReplayTimes Replay(const WorkloadSpec& spec, uint64_t seed,
                   const Capture& capture, obs::Tracer* tracer);

}  // namespace viewmat::hostbench

#endif  // HOSTBENCH_REPLAY_H_
