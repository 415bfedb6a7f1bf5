#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "stegfs/bitmap.h"
#include "stegfs/block_codec.h"
#include "stegfs/format.h"
#include "stegfs/header.h"
#include "stegfs/keys.h"
#include "stegfs/stegfs_core.h"
#include "storage/mem_block_device.h"

namespace steghide::stegfs {
namespace {

// ---- FileAccessKey ----------------------------------------------------

TEST(KeysTest, RandomFaksAreDistinct) {
  crypto::HashDrbg drbg(uint64_t{1});
  const auto a = FileAccessKey::Random(drbg, 1000);
  const auto b = FileAccessKey::Random(drbg, 1000);
  EXPECT_LT(a.header_location, 1000u);
  EXPECT_NE(a.header_key, b.header_key);
  EXPECT_NE(a.content_key, b.content_key);
}

TEST(KeysTest, PassphraseDerivationIsStable) {
  const auto a = FileAccessKey::FromPassphrase("secret", "/vault/a", 4096);
  const auto b = FileAccessKey::FromPassphrase("secret", "/vault/a", 4096);
  const auto c = FileAccessKey::FromPassphrase("secret", "/vault/b", 4096);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.header_key, c.header_key);
}

TEST(KeysTest, LocationCandidatesDiffer) {
  std::set<uint64_t> locs;
  for (uint64_t i = 0; i < 8; ++i) {
    locs.insert(
        FileAccessKey::DeriveLocationCandidate("p", "/f", i, 1 << 20));
  }
  EXPECT_GT(locs.size(), 6u);  // collisions possible but rare
}

TEST(KeysTest, SerializeRoundTrip) {
  crypto::HashDrbg drbg(uint64_t{2});
  const auto fak = FileAccessKey::Random(drbg, 123456);
  const auto back = FileAccessKey::Deserialize(fak.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, fak);
}

TEST(KeysTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(FileAccessKey::Deserialize("").ok());
  EXPECT_FALSE(FileAccessKey::Deserialize("12:abcd").ok());
  EXPECT_FALSE(FileAccessKey::Deserialize("x:aa:bb").ok());
  EXPECT_FALSE(FileAccessKey::Deserialize("5:zz:zz").ok());
}

TEST(KeysTest, DecoyKeyKeepsHeaderComponents) {
  crypto::HashDrbg drbg(uint64_t{3});
  const auto fak = FileAccessKey::Random(drbg, 1000);
  const auto decoy = fak.WithDecoyContentKey(drbg);
  EXPECT_EQ(decoy.header_location, fak.header_location);
  EXPECT_EQ(decoy.header_key, fak.header_key);
  EXPECT_NE(decoy.content_key, fak.content_key);
}

// ---- BlockBitmap --------------------------------------------------------

TEST(BitmapTest, MarkAndCount) {
  BlockBitmap bm(100);
  EXPECT_EQ(bm.data_count(), 0u);
  EXPECT_EQ(bm.dummy_count(), 100u);
  bm.MarkData(5);
  bm.MarkData(64);
  bm.MarkData(5);  // idempotent
  EXPECT_EQ(bm.data_count(), 2u);
  EXPECT_TRUE(bm.IsData(5));
  EXPECT_TRUE(bm.IsDummy(6));
  bm.MarkDummy(5);
  EXPECT_EQ(bm.data_count(), 1u);
  EXPECT_TRUE(bm.IsDummy(5));
}

TEST(BitmapTest, Utilization) {
  BlockBitmap bm(10);
  for (uint64_t i = 0; i < 4; ++i) bm.MarkData(i);
  EXPECT_DOUBLE_EQ(bm.utilization(), 0.4);
}

TEST(BitmapTest, SerializeRoundTrip) {
  BlockBitmap bm(130);  // crosses word boundaries
  bm.MarkData(0);
  bm.MarkData(63);
  bm.MarkData(64);
  bm.MarkData(129);
  const auto restored = BlockBitmap::Deserialize(bm.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_blocks(), 130u);
  EXPECT_EQ(restored->data_count(), 4u);
  EXPECT_TRUE(restored->IsData(129));
  EXPECT_TRUE(restored->IsDummy(128));
}

TEST(BitmapTest, DeserializeRejectsTruncated) {
  EXPECT_FALSE(BlockBitmap::Deserialize(Bytes{1, 2}).ok());
  BlockBitmap bm(64);
  Bytes ser = bm.Serialize();
  ser.pop_back();
  EXPECT_FALSE(BlockBitmap::Deserialize(ser).ok());
}

// ---- BlockCodec ------------------------------------------------------------

class BlockCodecTest : public ::testing::Test {
 protected:
  BlockCodecTest() : codec_(4096), drbg_(uint64_t{10}) {
    EXPECT_TRUE(cipher_.SetKey(drbg_.Generate(16)).ok());
  }
  BlockCodec codec_;
  crypto::HashDrbg drbg_;
  crypto::CbcCipher cipher_;
};

TEST_F(BlockCodecTest, SealOpenRoundTrip) {
  const Bytes payload = drbg_.Generate(codec_.payload_size());
  Bytes block(codec_.block_size());
  ASSERT_TRUE(codec_.Seal(cipher_, drbg_, payload.data(), block.data()).ok());
  Bytes back(codec_.payload_size());
  ASSERT_TRUE(codec_.Open(cipher_, block.data(), back.data()).ok());
  EXPECT_EQ(back, payload);
}

TEST_F(BlockCodecTest, SealsDiffer) {
  const Bytes payload(codec_.payload_size(), 0x00);
  Bytes b1(codec_.block_size()), b2(codec_.block_size());
  ASSERT_TRUE(codec_.Seal(cipher_, drbg_, payload.data(), b1.data()).ok());
  ASSERT_TRUE(codec_.Seal(cipher_, drbg_, payload.data(), b2.data()).ok());
  EXPECT_NE(b1, b2);  // fresh IV each time
}

TEST_F(BlockCodecTest, RefreshPreservesPlaintextChangesCiphertext) {
  const Bytes payload = drbg_.Generate(codec_.payload_size());
  Bytes block(codec_.block_size());
  ASSERT_TRUE(codec_.Seal(cipher_, drbg_, payload.data(), block.data()).ok());
  const Bytes before = block;
  ASSERT_TRUE(codec_.RefreshBlocks(cipher_, drbg_, block.data(), 1).ok());
  EXPECT_NE(block, before);
  // Every 16-byte unit must change — the dummy-update indistinguishability
  // property.
  for (size_t off = 0; off < block.size(); off += 16) {
    EXPECT_NE(memcmp(block.data() + off, before.data() + off, 16), 0);
  }
  Bytes back(codec_.payload_size());
  ASSERT_TRUE(codec_.Open(cipher_, block.data(), back.data()).ok());
  EXPECT_EQ(back, payload);
}

TEST_F(BlockCodecTest, RandomizeFillsWholeBlock) {
  Bytes block(codec_.block_size(), 0);
  codec_.Randomize(drbg_, block.data());
  EXPECT_NE(block, Bytes(codec_.block_size(), 0));
}

TEST_F(BlockCodecTest, BatchSealEqualsSequentialSeals) {
  // A SealBlocks batch must be byte-for-byte what n single Seals produce
  // from the same DRBG position — including the IVs, i.e. the batch
  // consumes the stream exactly as the sequential path would.
  constexpr size_t kN = 71;  // crosses the internal chain-chunk boundary
  crypto::HashDrbg payload_rng(uint64_t{40});
  const Bytes payloads = payload_rng.Generate(kN * codec_.payload_size());

  crypto::HashDrbg drbg_a(uint64_t{41}), drbg_b(uint64_t{41});
  Bytes batch(kN * codec_.block_size()), single(kN * codec_.block_size());
  ASSERT_TRUE(
      codec_.SealBlocks(cipher_, drbg_a, payloads.data(), kN, batch.data())
          .ok());
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(codec_.Seal(cipher_, drbg_b,
                            payloads.data() + i * codec_.payload_size(),
                            single.data() + i * codec_.block_size())
                    .ok());
  }
  EXPECT_EQ(batch, single);

  // OpenBlocks (contiguous) and OpenScatter (pointer-indexed, reversed
  // order) both recover every payload.
  Bytes back(kN * codec_.payload_size());
  ASSERT_TRUE(
      codec_.OpenBlocks(cipher_, batch.data(), kN, back.data()).ok());
  EXPECT_EQ(back, payloads);

  std::vector<const uint8_t*> blocks(kN);
  std::vector<uint8_t*> outs(kN);
  Bytes scattered(kN * codec_.payload_size());
  for (size_t i = 0; i < kN; ++i) {
    blocks[i] = batch.data() + (kN - 1 - i) * codec_.block_size();
    outs[i] = scattered.data() + (kN - 1 - i) * codec_.payload_size();
  }
  ASSERT_TRUE(codec_.OpenScatter(cipher_, blocks, outs).ok());
  EXPECT_EQ(scattered, payloads);
}

TEST_F(BlockCodecTest, RefreshBlocksPreservesPlaintextWithScratchReuse) {
  constexpr size_t kN = 5;
  const Bytes payloads = drbg_.Generate(kN * codec_.payload_size());
  Bytes blocks(kN * codec_.block_size());
  ASSERT_TRUE(
      codec_.SealBlocks(cipher_, drbg_, payloads.data(), kN, blocks.data())
          .ok());
  const Bytes before = blocks;
  Bytes scratch;
  ASSERT_TRUE(
      codec_.RefreshBlocks(cipher_, drbg_, blocks.data(), kN, &scratch).ok());
  EXPECT_NE(blocks, before);
  Bytes back(kN * codec_.payload_size());
  ASSERT_TRUE(codec_.OpenBlocks(cipher_, blocks.data(), kN, back.data()).ok());
  EXPECT_EQ(back, payloads);
  // Scratch sized once; a second refresh reuses it without regrowing.
  const size_t cap = scratch.capacity();
  ASSERT_TRUE(
      codec_.RefreshBlocks(cipher_, drbg_, blocks.data(), kN, &scratch).ok());
  EXPECT_EQ(scratch.capacity(), cap);
}

TEST_F(BlockCodecTest, TrafficCountersAdvance) {
  const stegfs::CryptoTrafficSnapshot before = GlobalCryptoTraffic();
  constexpr size_t kN = 3;
  const Bytes payloads = drbg_.Generate(kN * codec_.payload_size());
  Bytes blocks(kN * codec_.block_size());
  ASSERT_TRUE(
      codec_.SealBlocks(cipher_, drbg_, payloads.data(), kN, blocks.data())
          .ok());
  const stegfs::CryptoTrafficSnapshot after = GlobalCryptoTraffic();
  EXPECT_EQ(after.blocks - before.blocks, kN);
  EXPECT_EQ(after.bytes - before.bytes, kN * codec_.payload_size());
  EXPECT_EQ(after.batches - before.batches, 1u);
}

// ---- header serialization ----------------------------------------------------

TEST(HeaderTest, IndirectNeededBoundaries) {
  const size_t bs = 4096;
  const uint64_t per = PtrsPerIndirect(bs);
  EXPECT_EQ(HiddenFile::IndirectNeeded(0, bs), 0u);
  EXPECT_EQ(HiddenFile::IndirectNeeded(kNumDirectPtrs, bs), 0u);
  EXPECT_EQ(HiddenFile::IndirectNeeded(kNumDirectPtrs + 1, bs), 1u);
  EXPECT_EQ(HiddenFile::IndirectNeeded(kNumDirectPtrs + per, bs), 1u);
  EXPECT_EQ(HiddenFile::IndirectNeeded(kNumDirectPtrs + per + 1, bs), 2u);
}

TEST(HeaderTest, SerializeParseRoundTripDirectOnly) {
  HiddenFile file;
  file.file_size = 1234567;
  for (uint64_t i = 0; i < 10; ++i) file.block_ptrs.push_back(100 + i * 3);

  Bytes payload(PayloadSize(4096));
  SerializeHeader(file, 4096, payload.data());

  HiddenFile back;
  ASSERT_TRUE(ParseHeader(payload.data(), 4096, &back).ok());
  EXPECT_EQ(back.file_size, file.file_size);
  EXPECT_EQ(back.block_ptrs, file.block_ptrs);
  EXPECT_TRUE(back.indirect_locs.empty());
}

TEST(HeaderTest, SerializeParseRoundTripWithIndirects) {
  const size_t bs = 4096;
  const uint64_t blocks = kNumDirectPtrs + PtrsPerIndirect(bs) + 7;
  HiddenFile file;
  file.file_size = blocks * PayloadSize(bs);
  for (uint64_t i = 0; i < blocks; ++i) file.block_ptrs.push_back(i * 2 + 1);
  file.indirect_locs = {555, 777};

  Bytes header(PayloadSize(bs));
  SerializeHeader(file, bs, header.data());
  Bytes ind0(PayloadSize(bs)), ind1(PayloadSize(bs));
  SerializeIndirect(file, 0, bs, ind0.data());
  SerializeIndirect(file, 1, bs, ind1.data());

  HiddenFile back;
  ASSERT_TRUE(ParseHeader(header.data(), bs, &back).ok());
  EXPECT_EQ(back.indirect_locs, file.indirect_locs);
  ParseIndirect(ind0.data(), 0, bs, &back);
  ParseIndirect(ind1.data(), 1, bs, &back);
  EXPECT_EQ(back.block_ptrs, file.block_ptrs);
}

TEST(HeaderTest, ParseRejectsBadMagic) {
  Bytes payload(PayloadSize(4096), 0);
  HiddenFile out;
  EXPECT_EQ(ParseHeader(payload.data(), 4096, &out).code(),
            StatusCode::kPermissionDenied);
}

TEST(HeaderTest, ParseRejectsHugeBlockCount) {
  HiddenFile file;
  Bytes payload(PayloadSize(4096));
  SerializeHeader(file, 4096, payload.data());
  // Corrupt the block count beyond the representable maximum.
  StoreBigEndian64(payload.data() + 16, MaxFileBlocks(4096) + 1);
  HiddenFile out;
  EXPECT_EQ(ParseHeader(payload.data(), 4096, &out).code(),
            StatusCode::kCorruption);
}

// ---- StegFsCore ---------------------------------------------------------------

class StegFsCoreTest : public ::testing::Test {
 protected:
  StegFsCoreTest() : dev_(512, 4096), core_(&dev_, StegFsOptions{1, true}) {
    EXPECT_TRUE(core_.Format().ok());
  }
  storage::MemBlockDevice dev_;
  StegFsCore core_;
};

TEST_F(StegFsCoreTest, FormatRandomizesEveryBlock) {
  // No block may remain all-zero after formatting.
  Bytes block(4096);
  for (uint64_t b = 0; b < dev_.num_blocks(); ++b) {
    ASSERT_TRUE(dev_.ReadBlock(b, block.data()).ok());
    EXPECT_NE(block, Bytes(4096, 0)) << "block " << b << " untouched";
  }
}

TEST_F(StegFsCoreTest, StoreAndLoadEmptyFile) {
  HiddenFile file;
  file.fak = FileAccessKey::Random(core_.drbg(), dev_.num_blocks());
  ASSERT_TRUE(core_.StoreFile(file).ok());

  const auto loaded = core_.LoadFile(file.fak);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->file_size, 0u);
  EXPECT_TRUE(loaded->block_ptrs.empty());
}

TEST_F(StegFsCoreTest, WrongHeaderKeyIsDenied) {
  HiddenFile file;
  file.fak = FileAccessKey::Random(core_.drbg(), dev_.num_blocks());
  ASSERT_TRUE(core_.StoreFile(file).ok());

  FileAccessKey wrong = file.fak;
  wrong.header_key = core_.drbg().Generate(16);
  EXPECT_EQ(core_.LoadFile(wrong).status().code(),
            StatusCode::kPermissionDenied);
}

TEST_F(StegFsCoreTest, AbsentFileLooksLikeWrongKey) {
  // Opening a random location with a random key gives the same error as a
  // wrong key on a real file — the deniability property.
  const auto fak = FileAccessKey::Random(core_.drbg(), dev_.num_blocks());
  EXPECT_EQ(core_.LoadFile(fak).status().code(),
            StatusCode::kPermissionDenied);
}

TEST_F(StegFsCoreTest, DataBlockRoundTrip) {
  HiddenFile file;
  file.fak = FileAccessKey::Random(core_.drbg(), dev_.num_blocks());
  const Bytes payload = core_.drbg().Generate(core_.payload_size());
  ASSERT_TRUE(core_.WriteDataBlockAt(file, 42, payload.data()).ok());
  file.block_ptrs.push_back(42);
  file.file_size = core_.payload_size();

  Bytes back(core_.payload_size());
  ASSERT_TRUE(core_.ReadFileBlock(file, 0, back.data()).ok());
  EXPECT_EQ(back, payload);
}

TEST_F(StegFsCoreTest, WrongContentKeyYieldsGarbageNotError) {
  HiddenFile file;
  file.fak = FileAccessKey::Random(core_.drbg(), dev_.num_blocks());
  const Bytes payload = core_.drbg().Generate(core_.payload_size());
  ASSERT_TRUE(core_.WriteDataBlockAt(file, 10, payload.data()).ok());
  file.block_ptrs.push_back(10);

  HiddenFile decoy = file;
  decoy.fak.content_key = core_.drbg().Generate(16);
  Bytes out(core_.payload_size());
  // Reading succeeds — the content just decrypts to randomness, exactly
  // what a dummy file would contain.
  ASSERT_TRUE(core_.ReadFileBlock(decoy, 0, out.data()).ok());
  EXPECT_NE(out, payload);
}

TEST_F(StegFsCoreTest, LoadFileWithIndirectTree) {
  const uint64_t blocks = kNumDirectPtrs + 20;
  HiddenFile file;
  file.fak = FileAccessKey::Random(core_.drbg(), dev_.num_blocks());
  // Synthesise pointers; content is irrelevant for the tree round-trip.
  for (uint64_t i = 0; i < blocks; ++i) file.block_ptrs.push_back(i % 500);
  file.indirect_locs.push_back(501);
  file.file_size = blocks * core_.payload_size();
  ASSERT_TRUE(core_.StoreFile(file).ok());

  const auto loaded = core_.LoadFile(file.fak);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->block_ptrs, file.block_ptrs);
  EXPECT_EQ(loaded->indirect_locs, file.indirect_locs);
}

TEST_F(StegFsCoreTest, StoreFileValidatesIndirectSizing) {
  HiddenFile file;
  file.fak = FileAccessKey::Random(core_.drbg(), dev_.num_blocks());
  for (uint64_t i = 0; i < kNumDirectPtrs + 1; ++i) {
    file.block_ptrs.push_back(i);
  }
  // Missing indirect_locs entry for the overflow pointer.
  EXPECT_EQ(core_.StoreFile(file).code(), StatusCode::kFailedPrecondition);
}

TEST_F(StegFsCoreTest, StoreFileRejectsOversizedFile) {
  HiddenFile file;
  file.fak = FileAccessKey::Random(core_.drbg(), dev_.num_blocks());
  file.block_ptrs.assign(MaxFileBlocks(4096) + 1, 0);
  file.indirect_locs.assign(
      HiddenFile::IndirectNeeded(file.num_data_blocks(), 4096), 0);
  EXPECT_EQ(core_.StoreFile(file).code(), StatusCode::kInvalidArgument);
}

TEST_F(StegFsCoreTest, CipherCacheReturnsSameInstance) {
  const Bytes key = core_.drbg().Generate(16);
  const auto a = core_.CipherFor(key);
  const auto b = core_.CipherFor(key);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST_F(StegFsCoreTest, DummyFileReadsRawRandomness) {
  HiddenFile dummy;
  dummy.is_dummy = true;
  dummy.fak = FileAccessKey::Random(core_.drbg(), dev_.num_blocks());
  dummy.block_ptrs.push_back(77);
  dummy.file_size = core_.payload_size();
  Bytes out(core_.payload_size());
  ASSERT_TRUE(core_.ReadFileBlock(dummy, 0, out.data()).ok());
  // Formatted content: random, certainly not all zeros.
  EXPECT_NE(out, Bytes(core_.payload_size(), 0));
}

}  // namespace
}  // namespace steghide::stegfs
