#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <vector>

#include "util/bytes.h"
#include "util/random.h"
#include "workload/zipf.h"

namespace perfbench {

/// One generated request: a whole-block hidden read or write of global
/// block `block` (file = block / kFileBlocks).
struct Request {
  bool write = false;
  uint32_t block = 0;
};

/// The request stream, a pure function of its seed: each request is a
/// write with probability `write_frac`, and its block follows a Zipf(theta)
/// popularity over a seeded permutation of the blocks (so hot blocks are
/// spread across files). A draw that repeats one of the previous `window`
/// blocks is redrawn, which lets the generator keep at most one request
/// in flight per block without making the stream depend on timing.
class RequestStream {
 public:
  RequestStream(uint64_t seed, uint32_t num_blocks, double write_frac,
                double zipf_theta, size_t window);

  Request Next();

 private:
  steghide::Rng rng_;
  steghide::workload::ZipfGenerator zipf_;
  double write_frac_;
  size_t window_;
  std::vector<uint32_t> rank_to_block_;
  std::vector<uint32_t> recent_;       // ring of the last `window_` blocks
  size_t recent_next_ = 0;
  std::vector<uint8_t> in_window_;     // per block: present in `recent_`
};

/// Poisson arrival offsets (ms after the start of the run) at `rate_per_s`,
/// a pure function of the seed.
class ArrivalStream {
 public:
  ArrivalStream(uint64_t seed, double rate_per_s);
  double NextMs();

 private:
  steghide::Rng rng_;
  double mean_gap_ms_;
  double at_ms_ = 0.0;
};

/// Reference model of every block's contents: version 0 is the set-up
/// fill and version v > 0 the payload of the v-th acknowledged write. The
/// bytes of (block, version) are a keyed pseudo-random pattern, so the
/// model stores one counter per block and still catches a read that
/// returns another block's data, an older version, or a flipped byte.
class ReferenceModel {
 public:
  ReferenceModel(uint64_t content_seed, uint32_t num_blocks, size_t payload);

  size_t payload() const { return payload_; }
  uint32_t version(uint32_t block) const { return versions_[block]; }

  /// Writes the pattern of (block, version) into out[0, payload).
  void Fill(uint32_t block, uint32_t version, uint8_t* out) const;
  steghide::Bytes Pattern(uint32_t block, uint32_t version) const;

  /// True when `got` equals the block's last acknowledged contents.
  bool Matches(uint32_t block, const steghide::Bytes& got) const;

  /// Records an acknowledged write of `version`.
  void Ack(uint32_t block, uint32_t version) { versions_[block] = version; }

 private:
  uint64_t seed_;
  size_t payload_;
  std::vector<uint32_t> versions_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
