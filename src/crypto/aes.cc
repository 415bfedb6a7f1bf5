#include "crypto/aes.h"

#include <cstring>

#include "crypto/cpu_features.h"

namespace steghide::crypto {

namespace {

// Forward S-box (FIPS 197, Figure 7).
constexpr uint8_t kSbox[256] = {
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b,
    0xfe, 0xd7, 0xab, 0x76, 0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0,
    0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0, 0xb7, 0xfd, 0x93, 0x26,
    0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2,
    0xeb, 0x27, 0xb2, 0x75, 0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0,
    0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84, 0x53, 0xd1, 0x00, 0xed,
    0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f,
    0x50, 0x3c, 0x9f, 0xa8, 0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5,
    0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2, 0xcd, 0x0c, 0x13, 0xec,
    0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14,
    0xde, 0x5e, 0x0b, 0xdb, 0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c,
    0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79, 0xe7, 0xc8, 0x37, 0x6d,
    0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f,
    0x4b, 0xbd, 0x8b, 0x8a, 0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e,
    0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e, 0xe1, 0xf8, 0x98, 0x11,
    0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f,
    0xb0, 0x54, 0xbb, 0x16};

struct InvSbox {
  uint8_t v[256];
  constexpr InvSbox() : v{} {
    for (int i = 0; i < 256; ++i) v[kSbox[i]] = static_cast<uint8_t>(i);
  }
};
constexpr InvSbox kInvSbox;

// GF(2^8) multiply by x (i.e. {02}).
constexpr uint8_t Xtime(uint8_t a) {
  return static_cast<uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0x00));
}

constexpr uint8_t GfMul(uint8_t a, uint8_t b) {
  uint8_t r = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) r ^= a;
    a = Xtime(a);
    b >>= 1;
  }
  return r;
}

// Encryption T-table: Te0[x] = S[x]*{02,01,01,03} laid out so that the
// round transform is four table lookups + xor per output word. The other
// three tables are byte rotations of Te0.
struct EncTables {
  uint32_t t0[256];
  constexpr EncTables() : t0{} {
    for (int i = 0; i < 256; ++i) {
      const uint8_t s = kSbox[i];
      const uint8_t s2 = Xtime(s);
      const uint8_t s3 = static_cast<uint8_t>(s2 ^ s);
      t0[i] = (static_cast<uint32_t>(s2) << 24) |
              (static_cast<uint32_t>(s) << 16) |
              (static_cast<uint32_t>(s) << 8) | s3;
    }
  }
};
constexpr EncTables kEnc;

// Decryption T-table: Td0[x] = InvS[x]*{0e,09,0d,0b}.
struct DecTables {
  uint32_t t0[256];
  constexpr DecTables() : t0{} {
    for (int i = 0; i < 256; ++i) {
      const uint8_t s = kInvSbox.v[i];
      t0[i] = (static_cast<uint32_t>(GfMul(s, 0x0e)) << 24) |
              (static_cast<uint32_t>(GfMul(s, 0x09)) << 16) |
              (static_cast<uint32_t>(GfMul(s, 0x0d)) << 8) |
              GfMul(s, 0x0b);
    }
  }
};
constexpr DecTables kDec;

uint32_t Rotr8(uint32_t x) { return (x >> 8) | (x << 24); }

uint32_t Te(int which, uint8_t idx) {
  uint32_t v = kEnc.t0[idx];
  for (int i = 0; i < which; ++i) v = Rotr8(v);
  return v;
}

uint32_t Td(int which, uint8_t idx) {
  uint32_t v = kDec.t0[idx];
  for (int i = 0; i < which; ++i) v = Rotr8(v);
  return v;
}

uint32_t SubWord(uint32_t w) {
  return (static_cast<uint32_t>(kSbox[(w >> 24) & 0xff]) << 24) |
         (static_cast<uint32_t>(kSbox[(w >> 16) & 0xff]) << 16) |
         (static_cast<uint32_t>(kSbox[(w >> 8) & 0xff]) << 8) |
         kSbox[w & 0xff];
}

uint32_t RotWord(uint32_t w) { return (w << 8) | (w >> 24); }

// InvMixColumns applied to one word (used to derive decryption round keys).
uint32_t InvMixColumn(uint32_t w) {
  const uint8_t a = static_cast<uint8_t>(w >> 24);
  const uint8_t b = static_cast<uint8_t>(w >> 16);
  const uint8_t c = static_cast<uint8_t>(w >> 8);
  const uint8_t d = static_cast<uint8_t>(w);
  return (static_cast<uint32_t>(
              GfMul(a, 0x0e) ^ GfMul(b, 0x0b) ^ GfMul(c, 0x0d) ^ GfMul(d, 0x09))
          << 24) |
         (static_cast<uint32_t>(
              GfMul(a, 0x09) ^ GfMul(b, 0x0e) ^ GfMul(c, 0x0b) ^ GfMul(d, 0x0d))
          << 16) |
         (static_cast<uint32_t>(
              GfMul(a, 0x0d) ^ GfMul(b, 0x09) ^ GfMul(c, 0x0e) ^ GfMul(d, 0x0b))
          << 8) |
         static_cast<uint32_t>(GfMul(a, 0x0b) ^ GfMul(b, 0x0d) ^
                               GfMul(c, 0x09) ^ GfMul(d, 0x0e));
}

constexpr uint32_t kRcon[10] = {0x01000000, 0x02000000, 0x04000000, 0x08000000,
                                0x10000000, 0x20000000, 0x40000000, 0x80000000,
                                0x1b000000, 0x36000000};

}  // namespace

Status Aes::SetKey(const uint8_t* key, size_t key_len) {
  int nk;  // key length in words
  switch (key_len) {
    case 16:
      nk = 4;
      rounds_ = 10;
      break;
    case 24:
      nk = 6;
      rounds_ = 12;
      break;
    case 32:
      nk = 8;
      rounds_ = 14;
      break;
    default:
      rounds_ = 0;
      return Status::InvalidArgument("AES key must be 16, 24 or 32 bytes");
  }

  const int total_words = 4 * (rounds_ + 1);
  for (int i = 0; i < nk; ++i) enc_keys_[i] = LoadBigEndian32(key + 4 * i);
  for (int i = nk; i < total_words; ++i) {
    uint32_t temp = enc_keys_[i - 1];
    if (i % nk == 0) {
      temp = SubWord(RotWord(temp)) ^ kRcon[i / nk - 1];
    } else if (nk > 6 && i % nk == 4) {
      temp = SubWord(temp);
    }
    enc_keys_[i] = enc_keys_[i - nk] ^ temp;
  }

  // Decryption keys: reversed round order, InvMixColumns on the inner
  // rounds (equivalent inverse cipher, FIPS 197 §5.3.5).
  for (int i = 0; i < total_words; ++i) {
    const int round = i / 4;
    const int src_round = rounds_ - round;
    uint32_t w = enc_keys_[4 * src_round + i % 4];
    if (round != 0 && round != rounds_) w = InvMixColumn(w);
    dec_keys_[i] = w;
  }

  // Big-endian word dumps of both schedules give exactly the round-key
  // byte layout the AES-NI/ARMv8 kernels load, so the scalar expansion
  // above stays the single source of truth for both paths.
  for (int i = 0; i < total_words; ++i) {
    StoreBigEndian32(enc_rk_ + 4 * i, enc_keys_[i]);
    StoreBigEndian32(dec_rk_ + 4 * i, dec_keys_[i]);
  }
  accel_ = AesAccelerated();
  return Status::OK();
}

void Aes::EncryptBlock(const uint8_t in[kBlockSize],
                       uint8_t out[kBlockSize]) const {
  uint32_t s0 = LoadBigEndian32(in) ^ enc_keys_[0];
  uint32_t s1 = LoadBigEndian32(in + 4) ^ enc_keys_[1];
  uint32_t s2 = LoadBigEndian32(in + 8) ^ enc_keys_[2];
  uint32_t s3 = LoadBigEndian32(in + 12) ^ enc_keys_[3];

  const uint32_t* rk = enc_keys_ + 4;
  for (int round = 1; round < rounds_; ++round, rk += 4) {
    const uint32_t t0 = Te(0, s0 >> 24) ^ Te(1, (s1 >> 16) & 0xff) ^
                        Te(2, (s2 >> 8) & 0xff) ^ Te(3, s3 & 0xff) ^ rk[0];
    const uint32_t t1 = Te(0, s1 >> 24) ^ Te(1, (s2 >> 16) & 0xff) ^
                        Te(2, (s3 >> 8) & 0xff) ^ Te(3, s0 & 0xff) ^ rk[1];
    const uint32_t t2 = Te(0, s2 >> 24) ^ Te(1, (s3 >> 16) & 0xff) ^
                        Te(2, (s0 >> 8) & 0xff) ^ Te(3, s1 & 0xff) ^ rk[2];
    const uint32_t t3 = Te(0, s3 >> 24) ^ Te(1, (s0 >> 16) & 0xff) ^
                        Te(2, (s1 >> 8) & 0xff) ^ Te(3, s2 & 0xff) ^ rk[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }

  // Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
  const auto final_word = [&](uint32_t a, uint32_t b, uint32_t c, uint32_t d,
                              uint32_t k) {
    return (static_cast<uint32_t>(kSbox[a >> 24]) << 24 |
            static_cast<uint32_t>(kSbox[(b >> 16) & 0xff]) << 16 |
            static_cast<uint32_t>(kSbox[(c >> 8) & 0xff]) << 8 |
            kSbox[d & 0xff]) ^
           k;
  };
  const uint32_t o0 = final_word(s0, s1, s2, s3, rk[0]);
  const uint32_t o1 = final_word(s1, s2, s3, s0, rk[1]);
  const uint32_t o2 = final_word(s2, s3, s0, s1, rk[2]);
  const uint32_t o3 = final_word(s3, s0, s1, s2, rk[3]);

  StoreBigEndian32(out, o0);
  StoreBigEndian32(out + 4, o1);
  StoreBigEndian32(out + 8, o2);
  StoreBigEndian32(out + 12, o3);
}

void Aes::DecryptBlock(const uint8_t in[kBlockSize],
                       uint8_t out[kBlockSize]) const {
  uint32_t s0 = LoadBigEndian32(in) ^ dec_keys_[0];
  uint32_t s1 = LoadBigEndian32(in + 4) ^ dec_keys_[1];
  uint32_t s2 = LoadBigEndian32(in + 8) ^ dec_keys_[2];
  uint32_t s3 = LoadBigEndian32(in + 12) ^ dec_keys_[3];

  const uint32_t* rk = dec_keys_ + 4;
  for (int round = 1; round < rounds_; ++round, rk += 4) {
    const uint32_t t0 = Td(0, s0 >> 24) ^ Td(1, (s3 >> 16) & 0xff) ^
                        Td(2, (s2 >> 8) & 0xff) ^ Td(3, s1 & 0xff) ^ rk[0];
    const uint32_t t1 = Td(0, s1 >> 24) ^ Td(1, (s0 >> 16) & 0xff) ^
                        Td(2, (s3 >> 8) & 0xff) ^ Td(3, s2 & 0xff) ^ rk[1];
    const uint32_t t2 = Td(0, s2 >> 24) ^ Td(1, (s1 >> 16) & 0xff) ^
                        Td(2, (s0 >> 8) & 0xff) ^ Td(3, s3 & 0xff) ^ rk[2];
    const uint32_t t3 = Td(0, s3 >> 24) ^ Td(1, (s2 >> 16) & 0xff) ^
                        Td(2, (s1 >> 8) & 0xff) ^ Td(3, s0 & 0xff) ^ rk[3];
    s0 = t0;
    s1 = t1;
    s2 = t2;
    s3 = t3;
  }

  const auto final_word = [&](uint32_t a, uint32_t b, uint32_t c, uint32_t d,
                              uint32_t k) {
    return (static_cast<uint32_t>(kInvSbox.v[a >> 24]) << 24 |
            static_cast<uint32_t>(kInvSbox.v[(b >> 16) & 0xff]) << 16 |
            static_cast<uint32_t>(kInvSbox.v[(c >> 8) & 0xff]) << 8 |
            kInvSbox.v[d & 0xff]) ^
           k;
  };
  const uint32_t o0 = final_word(s0, s3, s2, s1, rk[0]);
  const uint32_t o1 = final_word(s1, s0, s3, s2, rk[1]);
  const uint32_t o2 = final_word(s2, s1, s0, s3, rk[2]);
  const uint32_t o3 = final_word(s3, s2, s1, s0, rk[3]);

  StoreBigEndian32(out, o0);
  StoreBigEndian32(out + 4, o1);
  StoreBigEndian32(out + 8, o2);
  StoreBigEndian32(out + 12, o3);
}

}  // namespace steghide::crypto
