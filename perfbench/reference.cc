#include "reference.h"

#include <cmath>
#include <cstring>

namespace perfbench {
namespace {

uint64_t SplitMix(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

RequestStream::RequestStream(uint64_t seed, uint32_t num_blocks,
                             double write_frac, double zipf_theta,
                             size_t window)
    : rng_(seed ^ 0x7265717374726dULL),
      zipf_(num_blocks, zipf_theta),
      write_frac_(write_frac),
      window_(window),
      rank_to_block_(num_blocks),
      in_window_(num_blocks, 0) {
  for (uint32_t i = 0; i < num_blocks; ++i) rank_to_block_[i] = i;
  rng_.Shuffle(rank_to_block_);
}

Request RequestStream::Next() {
  Request req;
  req.write = rng_.Bernoulli(write_frac_);
  do {
    req.block = rank_to_block_[zipf_.Next(rng_)];
  } while (in_window_[req.block] != 0);
  if (window_ == 0) return req;
  if (recent_.size() < window_) {
    recent_.push_back(req.block);
  } else {
    in_window_[recent_[recent_next_]] = 0;
    recent_[recent_next_] = req.block;
    recent_next_ = (recent_next_ + 1) % window_;
  }
  in_window_[req.block] = 1;
  return req;
}

ArrivalStream::ArrivalStream(uint64_t seed, double rate_per_s)
    : rng_(seed ^ 0x61727276616cULL), mean_gap_ms_(1000.0 / rate_per_s) {}

double ArrivalStream::NextMs() {
  // Inverse-CDF exponential gap; 1 - u lies in (0, 1].
  at_ms_ += -std::log(1.0 - rng_.NextDouble()) * mean_gap_ms_;
  return at_ms_;
}

ReferenceModel::ReferenceModel(uint64_t content_seed, uint32_t num_blocks,
                               size_t payload)
    : seed_(content_seed), payload_(payload), versions_(num_blocks, 0) {}

void ReferenceModel::Fill(uint32_t block, uint32_t version,
                          uint8_t* out) const {
  uint64_t state = seed_ ^ (static_cast<uint64_t>(block) << 32) ^ version;
  size_t i = 0;
  for (; i + 8 <= payload_; i += 8) {
    const uint64_t word = SplitMix(state);
    std::memcpy(out + i, &word, 8);
  }
  if (i < payload_) {
    const uint64_t word = SplitMix(state);
    std::memcpy(out + i, &word, payload_ - i);
  }
}

steghide::Bytes ReferenceModel::Pattern(uint32_t block,
                                        uint32_t version) const {
  steghide::Bytes out(payload_);
  Fill(block, version, out.data());
  return out;
}

bool ReferenceModel::Matches(uint32_t block,
                             const steghide::Bytes& got) const {
  if (got.size() != payload_) return false;
  uint64_t state = seed_ ^ (static_cast<uint64_t>(block) << 32) ^
                   versions_[block];
  size_t i = 0;
  for (; i + 8 <= payload_; i += 8) {
    const uint64_t word = SplitMix(state);
    if (std::memcmp(got.data() + i, &word, 8) != 0) return false;
  }
  if (i < payload_) {
    const uint64_t word = SplitMix(state);
    if (std::memcmp(got.data() + i, &word, payload_ - i) != 0) return false;
  }
  return true;
}

}  // namespace perfbench
