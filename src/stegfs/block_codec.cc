#include "stegfs/block_codec.h"

#include <algorithm>
#include <cstring>

#include "crypto/cpu_features.h"

namespace steghide::stegfs {

namespace {

// Chains handed to the cipher per kernel invocation. Bounds the on-stack
// pointer tables (3 × 64 × 8 B) and the per-chunk IV draw while still
// keeping the VAES/interleaved kernels saturated.
constexpr size_t kChainChunk = 64;

// Process-wide, so two threads can add at once (a session call sealing a
// header while the I/O thread opens records): the only cells that take
// the exact shared add.
struct CryptoCells {
  obs::CounterCell bytes;
  obs::CounterCell blocks;
  obs::CounterCell batches;
};
constexpr obs::StatRow<CryptoCells, CryptoTrafficSnapshot> kCryptoRows[] = {
    {"bytes", &CryptoCells::bytes, &CryptoTrafficSnapshot::bytes},
    {"blocks", &CryptoCells::blocks, &CryptoTrafficSnapshot::blocks},
    {"batches", &CryptoCells::batches, &CryptoTrafficSnapshot::batches},
};

CryptoCells& Cells() {
  static CryptoCells cells;
  return cells;
}

void Count(size_t nblocks, size_t payload_bytes_per_block, size_t passes = 1) {
  CryptoCells& c = Cells();
  c.bytes.AddShared(static_cast<uint64_t>(nblocks) *
                    payload_bytes_per_block * passes);
  c.blocks.AddShared(nblocks);
  c.batches.AddShared(1);
}

// The one seal loop behind SealBlocks and SealScatter: payload_at(i) is
// sealed into the block image at block_at(i), kChainChunk chains per
// kernel call with one IV draw per chunk.
template <typename PayloadAt, typename BlockAt>
Status SealChunks(const crypto::CbcCipher& cipher, crypto::HashDrbg& drbg,
                  size_t n, size_t ps, PayloadAt payload_at,
                  BlockAt block_at) {
  uint8_t iv_buf[kChainChunk * kIvSize];
  const uint8_t* ivs[kChainChunk];
  const uint8_t* ins[kChainChunk];
  uint8_t* outs[kChainChunk];
  for (size_t done = 0; done < n;) {
    const size_t take = std::min(n - done, kChainChunk);
    // One draw for the whole chunk consumes the DRBG stream byte-for-byte
    // as `take` single-IV draws would (the output stream is
    // position-independent), so batching is invisible to the trace.
    drbg.Generate(iv_buf, take * kIvSize);
    for (size_t i = 0; i < take; ++i) {
      uint8_t* block = block_at(done + i);
      std::memcpy(block, iv_buf + i * kIvSize, kIvSize);
      ivs[i] = block;
      ins[i] = payload_at(done + i);
      outs[i] = block + kIvSize;
    }
    STEGHIDE_RETURN_IF_ERROR(cipher.EncryptChains(ivs, ins, outs, ps, take));
    done += take;
  }
  Count(n, ps);
  return Status::OK();
}

// The one open loop behind OpenBlocks and OpenScatter: the block image at
// block_at(i) is opened into payload_at(i).
template <typename BlockAt, typename PayloadAt>
Status OpenChunks(const crypto::CbcCipher& cipher, size_t n, size_t ps,
                  BlockAt block_at, PayloadAt payload_at) {
  const uint8_t* ivs[kChainChunk];
  const uint8_t* ins[kChainChunk];
  uint8_t* outs[kChainChunk];
  for (size_t done = 0; done < n;) {
    const size_t take = std::min(n - done, kChainChunk);
    for (size_t i = 0; i < take; ++i) {
      const uint8_t* block = block_at(done + i);
      ivs[i] = block;
      ins[i] = block + kIvSize;
      outs[i] = payload_at(done + i);
    }
    STEGHIDE_RETURN_IF_ERROR(cipher.DecryptChains(ivs, ins, outs, ps, take));
    done += take;
  }
  Count(n, ps);
  return Status::OK();
}

}  // namespace

Status BlockCodec::Seal(const crypto::CbcCipher& cipher,
                        crypto::HashDrbg& drbg, const uint8_t* payload,
                        uint8_t* out_block) const {
  crypto::Iv iv;
  drbg.Generate(iv.data(), iv.size());
  std::memcpy(out_block, iv.data(), kIvSize);
  Count(1, payload_size());
  return cipher.Encrypt(iv, payload, payload_size(), out_block + kIvSize);
}

Status BlockCodec::Open(const crypto::CbcCipher& cipher, const uint8_t* block,
                        uint8_t* out_payload) const {
  crypto::Iv iv;
  std::memcpy(iv.data(), block, kIvSize);
  Count(1, payload_size());
  return cipher.Decrypt(iv, block + kIvSize, payload_size(), out_payload);
}

Status BlockCodec::SealBlocks(const crypto::CbcCipher& cipher,
                              crypto::HashDrbg& drbg, const uint8_t* payloads,
                              size_t n, uint8_t* out_blocks) const {
  const size_t ps = payload_size();
  return SealChunks(
      cipher, drbg, n, ps, [&](size_t i) { return payloads + i * ps; },
      [&](size_t i) { return out_blocks + i * block_size_; });
}

Status BlockCodec::SealScatter(const crypto::CbcCipher& cipher,
                               crypto::HashDrbg& drbg,
                               std::span<const uint8_t* const> payloads,
                               std::span<uint8_t* const> out_blocks) const {
  if (payloads.size() != out_blocks.size()) {
    return Status::InvalidArgument("seal batch size mismatch");
  }
  return SealChunks(
      cipher, drbg, payloads.size(), payload_size(),
      [&](size_t i) { return payloads[i]; },
      [&](size_t i) { return out_blocks[i]; });
}

Status BlockCodec::OpenBlocks(const crypto::CbcCipher& cipher,
                              const uint8_t* blocks, size_t n,
                              uint8_t* out_payloads) const {
  const size_t ps = payload_size();
  return OpenChunks(
      cipher, n, ps, [&](size_t i) { return blocks + i * block_size_; },
      [&](size_t i) { return out_payloads + i * ps; });
}

Status BlockCodec::OpenScatter(const crypto::CbcCipher& cipher,
                               std::span<const uint8_t* const> blocks,
                               std::span<uint8_t* const> out_payloads) const {
  if (blocks.size() != out_payloads.size()) {
    return Status::InvalidArgument("open batch size mismatch");
  }
  return OpenChunks(
      cipher, blocks.size(), payload_size(),
      [&](size_t i) { return blocks[i]; },
      [&](size_t i) { return out_payloads[i]; });
}

Status BlockCodec::RefreshBlocks(const crypto::CbcCipher& cipher,
                                 crypto::HashDrbg& drbg, uint8_t* blocks,
                                 size_t n, Bytes* scratch) const {
  const size_t ps = payload_size();
  Bytes local;
  Bytes& plain = scratch != nullptr ? *scratch : local;
  const size_t chunk = std::min(n, kChainChunk);
  if (plain.size() < chunk * ps) plain.resize(chunk * ps);
  for (size_t done = 0; done < n;) {
    const size_t take = std::min(n - done, kChainChunk);
    uint8_t* chunk_blocks = blocks + done * block_size_;
    STEGHIDE_RETURN_IF_ERROR(
        OpenBlocks(cipher, chunk_blocks, take, plain.data()));
    STEGHIDE_RETURN_IF_ERROR(
        SealBlocks(cipher, drbg, plain.data(), take, chunk_blocks));
    done += take;
  }
  return Status::OK();
}

void BlockCodec::Randomize(crypto::HashDrbg& drbg, uint8_t* block) const {
  drbg.Generate(block, block_size_);
}

obs::Registration RegisterCryptoMetrics(obs::Registry* registry) {
  obs::Registration reg(registry);
  obs::RegisterRows(kCryptoRows, Cells(), "crypto", &reg);
  reg.Callback("crypto.accel_aes", [] {
    return crypto::AesAccelerated() ? 1.0 : 0.0;
  });
  reg.Callback("crypto.accel_sha256", [] {
    return crypto::Sha256Accelerated() ? 1.0 : 0.0;
  });
  return reg;
}

CryptoTrafficSnapshot GlobalCryptoTraffic() {
  return obs::ReadRows(kCryptoRows, Cells());
}

}  // namespace steghide::stegfs
