#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "crypto/aes.h"
#include "crypto/cbc.h"
#include "crypto/cpu_features.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/key.h"
#include "crypto/sha256.h"
#include "stegfs/block_codec.h"
#include "util/bytes.h"

namespace steghide::crypto {
namespace {

std::string DigestHex(const Sha256::Digest& d) {
  return ToHex(d.data(), d.size());
}

// ---- SHA-256 (FIPS 180-2 / NIST CAVS vectors) -------------------------

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(DigestHex(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(DigestHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      DigestHex(Sha256::Hash(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(DigestHex(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  Sha256 h;
  for (char c : msg) h.Update(std::string_view(&c, 1));
  EXPECT_EQ(DigestHex(h.Finish()), DigestHex(Sha256::Hash(msg)));
}

TEST(Sha256Test, ResetAllowsReuse) {
  Sha256 h;
  h.Update("garbage");
  (void)h.Finish();
  h.Reset();
  h.Update("abc");
  EXPECT_EQ(DigestHex(h.Finish()), DigestHex(Sha256::Hash("abc")));
}

// Lengths straddling the 55/56/64-byte padding boundaries.
TEST(Sha256Test, PaddingBoundaries) {
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
    const std::string msg(len, 'x');
    Sha256 h;
    h.Update(msg.substr(0, len / 2));
    h.Update(msg.substr(len / 2));
    EXPECT_EQ(DigestHex(h.Finish()), DigestHex(Sha256::Hash(msg)))
        << "length " << len;
  }
}

// ---- AES (FIPS 197 Appendix C vectors) --------------------------------

struct AesVector {
  size_t key_len;
  const char* expected;
};

class AesFipsTest : public ::testing::TestWithParam<AesVector> {};

TEST_P(AesFipsTest, KnownAnswer) {
  const AesVector& v = GetParam();
  Bytes key(v.key_len);
  for (size_t i = 0; i < key.size(); ++i) key[i] = static_cast<uint8_t>(i);
  const Bytes plaintext = FromHex("00112233445566778899aabbccddeeff");

  Aes aes;
  ASSERT_TRUE(aes.SetKey(key).ok());
  uint8_t ct[16];
  aes.EncryptBlock(plaintext.data(), ct);
  EXPECT_EQ(ToHex(ct, 16), v.expected);

  uint8_t pt[16];
  aes.DecryptBlock(ct, pt);
  EXPECT_EQ(ToHex(pt, 16), ToHex(plaintext));
}

INSTANTIATE_TEST_SUITE_P(
    Fips197, AesFipsTest,
    ::testing::Values(AesVector{16, "69c4e0d86a7b0430d8cdb78070b4c55a"},
                      AesVector{24, "dda97ca4864cdfe06eaf70a0ec0d7191"},
                      AesVector{32, "8ea2b7ca516745bfeafc49904b496089"}));

TEST(AesTest, RejectsBadKeyLength) {
  Aes aes;
  Bytes key(15);
  EXPECT_FALSE(aes.SetKey(key).ok());
  EXPECT_FALSE(aes.has_key());
}

TEST(AesTest, InPlaceBlockOps) {
  Aes aes;
  ASSERT_TRUE(aes.SetKey(Bytes(16, 0x42)).ok());
  uint8_t block[16];
  for (int i = 0; i < 16; ++i) block[i] = static_cast<uint8_t>(i);
  uint8_t original[16];
  memcpy(original, block, 16);
  aes.EncryptBlock(block, block);
  EXPECT_NE(memcmp(block, original, 16), 0);
  aes.DecryptBlock(block, block);
  EXPECT_EQ(memcmp(block, original, 16), 0);
}

TEST(AesTest, RoundTripRandomKeysProperty) {
  HashDrbg drbg(uint64_t{99});
  for (size_t key_len : {16u, 24u, 32u}) {
    for (int trial = 0; trial < 20; ++trial) {
      Aes aes;
      ASSERT_TRUE(aes.SetKey(drbg.Generate(key_len)).ok());
      Bytes pt = drbg.Generate(16);
      uint8_t ct[16], back[16];
      aes.EncryptBlock(pt.data(), ct);
      aes.DecryptBlock(ct, back);
      EXPECT_EQ(Bytes(back, back + 16), pt);
    }
  }
}

// ---- CBC (NIST SP 800-38A F.2.1/F.2.2) --------------------------------

TEST(CbcTest, Sp80038aVector) {
  CbcCipher cbc;
  ASSERT_TRUE(cbc.SetKey(FromHex("2b7e151628aed2a6abf7158809cf4f3c")).ok());
  Iv iv;
  const Bytes iv_bytes = FromHex("000102030405060708090a0b0c0d0e0f");
  std::copy(iv_bytes.begin(), iv_bytes.end(), iv.begin());

  const Bytes plaintext = FromHex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  const std::string expected =
      "7649abac8119b246cee98e9b12e9197d"
      "5086cb9b507219ee95db113a917678b2"
      "73bed6b8e3c1743b7116e69e22229516"
      "3ff1caa1681fac09120eca307586e1a7";

  Bytes ct(plaintext.size());
  ASSERT_TRUE(
      cbc.Encrypt(iv, plaintext.data(), plaintext.size(), ct.data()).ok());
  EXPECT_EQ(ToHex(ct), expected);

  Bytes back(plaintext.size());
  ASSERT_TRUE(cbc.Decrypt(iv, ct.data(), ct.size(), back.data()).ok());
  EXPECT_EQ(back, plaintext);
}

TEST(CbcTest, RejectsUnalignedLength) {
  CbcCipher cbc;
  ASSERT_TRUE(cbc.SetKey(Bytes(16, 1)).ok());
  Iv iv{};
  Bytes buf(17);
  EXPECT_FALSE(cbc.Encrypt(iv, buf.data(), buf.size(), buf.data()).ok());
  EXPECT_FALSE(cbc.Decrypt(iv, buf.data(), buf.size(), buf.data()).ok());
}

TEST(CbcTest, RequiresKey) {
  CbcCipher cbc;
  Iv iv{};
  Bytes buf(16);
  EXPECT_EQ(cbc.Encrypt(iv, buf.data(), buf.size(), buf.data()).code(),
            StatusCode::kFailedPrecondition);
}

class CbcRoundTripTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CbcRoundTripTest, RoundTripsAndDiffusesProperty) {
  const size_t n = GetParam();
  HashDrbg drbg(n);
  CbcCipher cbc;
  ASSERT_TRUE(cbc.SetKey(drbg.Generate(16)).ok());
  Iv iv;
  drbg.Generate(iv.data(), iv.size());

  const Bytes pt = drbg.Generate(n);
  Bytes ct(n), back(n);
  ASSERT_TRUE(cbc.Encrypt(iv, pt.data(), n, ct.data()).ok());
  ASSERT_TRUE(cbc.Decrypt(iv, ct.data(), n, back.data()).ok());
  EXPECT_EQ(back, pt);
  EXPECT_NE(ct, pt);

  // A different IV must change every ciphertext block (CBC chains from the
  // IV), which is what makes an IV refresh a convincing dummy update.
  Iv iv2 = iv;
  iv2[0] ^= 0x01;
  Bytes ct2(n);
  ASSERT_TRUE(cbc.Encrypt(iv2, pt.data(), n, ct2.data()).ok());
  for (size_t off = 0; off < n; off += 16) {
    EXPECT_NE(memcmp(ct.data() + off, ct2.data() + off, 16), 0)
        << "block at " << off << " unchanged";
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CbcRoundTripTest,
                         ::testing::Values(16, 32, 256, 4080));

// ---- HMAC-SHA256 (RFC 4231) --------------------------------------------

TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const auto mac = HmacSha256::Mac(key, std::string_view("Hi There"));
  EXPECT_EQ(ToHex(mac.data(), mac.size()),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  const Bytes key = {'J', 'e', 'f', 'e'};
  const auto mac =
      HmacSha256::Mac(key, std::string_view("what do ya want for nothing?"));
  EXPECT_EQ(ToHex(mac.data(), mac.size()),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, LongKeyIsHashed) {
  // RFC 4231 case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  const auto mac = HmacSha256::Mac(
      key, std::string_view("Test Using Larger Than Block-Size Key - "
                            "Hash Key First"));
  EXPECT_EQ(ToHex(mac.data(), mac.size()),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, DifferentKeysDiffer) {
  const Bytes m = {1, 2, 3};
  EXPECT_NE(ToHex(HmacSha256::Mac(Bytes{1}, m).data(), 32),
            ToHex(HmacSha256::Mac(Bytes{2}, m).data(), 32));
}

// ---- HashDrbg ----------------------------------------------------------

TEST(DrbgTest, DeterministicFromSeed) {
  HashDrbg a(uint64_t{42}), b(uint64_t{42}), c(uint64_t{43});
  const Bytes ba = a.Generate(64);
  const Bytes bb = b.Generate(64);
  const Bytes bc = c.Generate(64);
  EXPECT_EQ(ba, bb);
  EXPECT_NE(ba, bc);
}

TEST(DrbgTest, StreamIsPositionIndependent) {
  HashDrbg a(uint64_t{1}), b(uint64_t{1});
  Bytes whole = a.Generate(100);
  Bytes first = b.Generate(37);
  Bytes rest = b.Generate(63);
  first.insert(first.end(), rest.begin(), rest.end());
  EXPECT_EQ(whole, first);
}

TEST(DrbgTest, UniformBoundsAndCoverage) {
  HashDrbg drbg(uint64_t{7});
  std::set<uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = drbg.Uniform(13);
    ASSERT_LT(v, 13u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 13u);
}

TEST(DrbgTest, OutputLooksBalanced) {
  // Monobit sanity: about half the bits of a long output are set.
  HashDrbg drbg(uint64_t{11});
  const Bytes out = drbg.Generate(1 << 16);
  uint64_t ones = 0;
  for (uint8_t b : out) ones += std::popcount(static_cast<unsigned>(b));
  const double frac = static_cast<double>(ones) / (out.size() * 8.0);
  EXPECT_NEAR(frac, 0.5, 0.01);
}

/// The generator's stream rebuilt from the public Sha256 API:
/// V = SHA-256("steghide-drbg-init" ‖ BE64(seed)) and output block i =
/// SHA-256(V ‖ BE64(i)), read front to back.
class ReferenceDrbgStream {
 public:
  explicit ReferenceDrbgStream(uint64_t seed) {
    uint8_t seed_bytes[8];
    StoreBigEndian64(seed_bytes, seed);
    Sha256 h;
    h.Update("steghide-drbg-init");
    h.Update(seed_bytes, sizeof(seed_bytes));
    v_ = h.Finish();
  }

  Bytes Take(size_t n) {
    Bytes out;
    while (out.size() < n) {
      if (offset_ == block_.size()) {
        uint8_t ctr[8];
        StoreBigEndian64(ctr, counter_++);
        Sha256 h;
        h.Update(v_.data(), v_.size());
        h.Update(ctr, sizeof(ctr));
        block_ = h.Finish();
        offset_ = 0;
      }
      const size_t take = std::min(n - out.size(), block_.size() - offset_);
      out.insert(out.end(), block_.begin() + offset_,
                 block_.begin() + offset_ + take);
      offset_ += take;
    }
    return out;
  }

  uint64_t Uniform(uint64_t bound) {
    const uint64_t threshold = -bound % bound;
    for (;;) {
      const uint64_t r = LoadBigEndian64(Take(8).data());
      if (r >= threshold) return r % bound;
    }
  }

 private:
  Sha256::Digest v_{};
  Sha256::Digest block_{};
  size_t offset_ = Sha256::kDigestSize;
  uint64_t counter_ = 0;
};

TEST(DrbgTest, OutputStageIsHashOfStateAndCounter) {
  for (const CryptoImpl impl : {CryptoImpl::kScalar, CryptoImpl::kAccel}) {
    SCOPED_TRACE(CryptoImplName(impl));
    ScopedCryptoImpl force(impl);
    HashDrbg drbg(uint64_t{42});
    ReferenceDrbgStream ref(42);
    // Call sizes that start, end and straddle 32-byte output blocks from
    // every offset the sequence reaches, with 8-byte draws between.
    for (int round = 0; round < 3; ++round) {
      for (const size_t n : {1u, 7u, 8u, 16u, 31u, 32u, 33u, 64u, 100u,
                             4096u, 4101u}) {
        ASSERT_EQ(drbg.Generate(n), ref.Take(n)) << "size " << n;
        ASSERT_EQ(drbg.NextUint64(), LoadBigEndian64(ref.Take(8).data()));
        ASSERT_EQ(drbg.Uniform(1000 + n), ref.Uniform(1000 + n));
      }
    }

    // The first MiB at seed 42, as every earlier version produced it.
    HashDrbg pinned(uint64_t{42});
    const Bytes mib = pinned.Generate(1 << 20);
    EXPECT_EQ(DigestHex(Sha256::Hash(mib)),
              "0eeebe057c0b3ef0cddb7bda3d30d3f1664516bd31db21157e70c0b4b204d7cc");
  }
}

// ---- crypto traffic accounting -------------------------------------------

TEST(CryptoTrafficTest, ConcurrentCodecsCountEveryBatch) {
  // Two threads seal and open batches at once, each through its own
  // BlockCodec, HashDrbg and cipher. Both feed the process-wide traffic
  // cells, so those cells must add exactly under concurrent writers: no
  // batch, block or byte of either thread may be lost.
  constexpr size_t kBlockSize = 512;
  constexpr size_t kBlocks = 2;
  constexpr uint64_t kBatches = 20000;
  const stegfs::CryptoTrafficSnapshot before = stegfs::GlobalCryptoTraffic();
  const auto run = [](uint64_t seed) {
    const stegfs::BlockCodec codec(kBlockSize);
    HashDrbg drbg(seed);
    CbcCipher cipher;
    ASSERT_TRUE(cipher.SetKey(drbg.Generate(16)).ok());
    const Bytes payloads = drbg.Generate(kBlocks * codec.payload_size());
    Bytes blocks(kBlocks * kBlockSize);
    Bytes back(payloads.size());
    for (uint64_t i = 0; i < kBatches; ++i) {
      ASSERT_TRUE(codec
                      .SealBlocks(cipher, drbg, payloads.data(), kBlocks,
                                  blocks.data())
                      .ok());
      ASSERT_TRUE(
          codec.OpenBlocks(cipher, blocks.data(), kBlocks, back.data()).ok());
    }
    EXPECT_EQ(back, payloads);
  };
  std::thread a(run, uint64_t{51});
  std::thread b(run, uint64_t{52});
  a.join();
  b.join();

  const stegfs::CryptoTrafficSnapshot after = stegfs::GlobalCryptoTraffic();
  const uint64_t batches = 2 * 2 * kBatches;  // two threads, seal + open
  EXPECT_EQ(after.batches - before.batches, batches);
  EXPECT_EQ(after.blocks - before.blocks, batches * kBlocks);
  EXPECT_EQ(after.bytes - before.bytes,
            batches * kBlocks * stegfs::PayloadSize(kBlockSize));
}

// ---- hardware dispatch ---------------------------------------------------

TEST(CpuFeaturesTest, OverrideForcesScalar) {
  {
    ScopedCryptoImpl scoped(CryptoImpl::kScalar);
    EXPECT_FALSE(AesAccelerated());
    EXPECT_FALSE(Sha256Accelerated());
    EXPECT_STREQ(CryptoImplName(ActiveCryptoImpl()), "scalar");
  }
  // The accelerated path reports "accel" only when both the CPU and the
  // build provide the kernels; either way the name is consistent.
  if (AesAccelerated() || Sha256Accelerated()) {
    EXPECT_STREQ(CryptoImplName(ActiveCryptoImpl()), "accel");
  }
}

TEST(CpuFeaturesTest, ObjectsLatchImplAtKeySetup) {
  // A cipher keyed while scalar is forced stays scalar for its lifetime
  // even after the override lifts — one object never mixes kernels.
  const Bytes key(16, 0x42);
  CbcCipher forced;
  {
    ScopedCryptoImpl scoped(CryptoImpl::kScalar);
    ASSERT_TRUE(forced.SetKey(key).ok());
  }
  CbcCipher current;
  ASSERT_TRUE(current.SetKey(key).ok());
  const Iv iv{};
  uint8_t in[16] = {1, 2, 3};
  uint8_t a[16], b[16];
  ASSERT_TRUE(forced.Encrypt(iv, in, sizeof(in), a).ok());
  ASSERT_TRUE(current.Encrypt(iv, in, sizeof(in), b).ok());
  EXPECT_EQ(std::memcmp(a, b, 16), 0);  // same cipher either way
}

TEST(CpuFeaturesTest, ScalarAndAcceleratedAgree) {
  // Property cross-check on top of the fixed vectors: for random keys and
  // messages the two paths must produce identical bytes in every mode.
  // The key length cycles through AES-128/192/256, so the hardware rounds
  // are checked against the scalar reference at every key size.
  HashDrbg rng(uint64_t{0x5ca1a});
  for (int trial = 0; trial < 8; ++trial) {
    const size_t key_len = 16 + 8 * (trial % 3);
    const Bytes key = rng.Generate(key_len);
    const Bytes msg = rng.Generate(16 * (1 + trial % 7));
    Iv iv;
    rng.Generate(iv.data(), iv.size());

    Bytes ct_a(msg.size()), ct_b(msg.size());
    Bytes pt_a(msg.size()), pt_b(msg.size());
    {
      CbcCipher c;
      ASSERT_TRUE(c.SetKey(key).ok());
      ASSERT_TRUE(c.Encrypt(iv, msg.data(), msg.size(), ct_a.data()).ok());
      ASSERT_TRUE(c.Decrypt(iv, ct_a.data(), ct_a.size(), pt_a.data()).ok());
    }
    {
      ScopedCryptoImpl scoped(CryptoImpl::kScalar);
      CbcCipher c;
      ASSERT_TRUE(c.SetKey(key).ok());
      ASSERT_TRUE(c.Encrypt(iv, msg.data(), msg.size(), ct_b.data()).ok());
      ASSERT_TRUE(c.Decrypt(iv, ct_b.data(), ct_b.size(), pt_b.data()).ok());
    }
    EXPECT_EQ(ct_a, ct_b);
    EXPECT_EQ(pt_a, msg);
    EXPECT_EQ(pt_b, msg);

    const Bytes digest_in = rng.Generate(1 + trial * 37);
    Sha256::Digest d_a = Sha256::Hash(digest_in.data(), digest_in.size());
    Sha256::Digest d_b;
    {
      ScopedCryptoImpl scoped(CryptoImpl::kScalar);
      d_b = Sha256::Hash(digest_in.data(), digest_in.size());
    }
    EXPECT_EQ(d_a, d_b);
  }
}

// ---- multi-chain CBC batches ---------------------------------------------

class CbcChainsTest : public ::testing::TestWithParam<CryptoImpl> {};

TEST_P(CbcChainsTest, MatchesSequentialCalls) {
  ScopedCryptoImpl scoped(GetParam());
  HashDrbg rng(uint64_t{77});
  CbcCipher cipher;
  ASSERT_TRUE(cipher.SetKey(rng.Generate(16)).ok());

  // Chain counts straddling the 4-wide and (VAES) 8-wide kernel widths.
  for (const size_t nchains : {size_t{1}, size_t{3}, size_t{4}, size_t{7},
                               size_t{8}, size_t{13}, size_t{64}}) {
    const size_t n = 16 * 9;  // bytes per chain
    Bytes ivs_buf = rng.Generate(nchains * 16);
    Bytes ins_buf = rng.Generate(nchains * n);
    Bytes batch_out(nchains * n), seq_out(nchains * n);
    std::vector<const uint8_t*> ivs(nchains), ins(nchains);
    std::vector<uint8_t*> outs(nchains);
    for (size_t c = 0; c < nchains; ++c) {
      ivs[c] = ivs_buf.data() + c * 16;
      ins[c] = ins_buf.data() + c * n;
      outs[c] = batch_out.data() + c * n;
    }
    ASSERT_TRUE(
        cipher.EncryptChains(ivs.data(), ins.data(), outs.data(), n, nchains)
            .ok());
    for (size_t c = 0; c < nchains; ++c) {
      Iv iv;
      std::memcpy(iv.data(), ivs[c], 16);
      ASSERT_TRUE(
          cipher.Encrypt(iv, ins[c], n, seq_out.data() + c * n).ok());
    }
    EXPECT_EQ(batch_out, seq_out) << "encrypt nchains=" << nchains;

    // Decrypt the batch ciphertext back through DecryptChains.
    Bytes round(nchains * n);
    std::vector<const uint8_t*> cts(nchains);
    std::vector<uint8_t*> pts(nchains);
    for (size_t c = 0; c < nchains; ++c) {
      cts[c] = batch_out.data() + c * n;
      pts[c] = round.data() + c * n;
    }
    ASSERT_TRUE(
        cipher.DecryptChains(ivs.data(), cts.data(), pts.data(), n, nchains)
            .ok());
    EXPECT_EQ(round, ins_buf) << "decrypt nchains=" << nchains;
  }
}

INSTANTIATE_TEST_SUITE_P(Impls, CbcChainsTest,
                         ::testing::Values(CryptoImpl::kScalar,
                                           CryptoImpl::kAccel),
                         [](const auto& info) {
                           return info.param == CryptoImpl::kScalar
                                      ? "Scalar"
                                      : "Accel";
                         });

// ---- key derivation ------------------------------------------------------

TEST(KeyTest, SubkeysAreLabelSeparated) {
  const Bytes master = {1, 2, 3, 4};
  const Bytes a = DeriveSubkey(master, "header");
  const Bytes b = DeriveSubkey(master, "content");
  EXPECT_EQ(a.size(), kDefaultKeyLen);
  EXPECT_NE(a, b);
  EXPECT_EQ(a, DeriveSubkey(master, "header"));
}

TEST(KeyTest, DeriveUint64Deterministic) {
  const Bytes master = {9};
  EXPECT_EQ(DeriveUint64(master, "x"), DeriveUint64(master, "x"));
  EXPECT_NE(DeriveUint64(master, "x"), DeriveUint64(master, "y"));
}

TEST(KeyTest, PassphraseStretching) {
  const Bytes k1 = KeyFromPassphrase("hunter2", "salt", 100);
  const Bytes k2 = KeyFromPassphrase("hunter2", "salt", 100);
  const Bytes k3 = KeyFromPassphrase("hunter2", "pepper", 100);
  const Bytes k4 = KeyFromPassphrase("hunter3", "salt", 100);
  EXPECT_EQ(k1, k2);
  EXPECT_NE(k1, k3);
  EXPECT_NE(k1, k4);
  EXPECT_EQ(k1.size(), kDefaultKeyLen);
}

}  // namespace
}  // namespace steghide::crypto
