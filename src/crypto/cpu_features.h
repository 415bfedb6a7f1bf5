#ifndef STEGHIDE_CRYPTO_CPU_FEATURES_H_
#define STEGHIDE_CRYPTO_CPU_FEATURES_H_

namespace steghide::crypto {

/// Which crypto implementation the dispatcher resolved to.
enum class CryptoImpl {
  kScalar,  // portable table/word implementations
  kAccel,   // AES-NI/SHA-NI (x86) or ARMv8 crypto extensions
};

/// Hardware crypto capabilities of the running CPU, probed once (CPUID +
/// XGETBV on x86, hwcaps on aarch64) and cached.
struct CpuCrypto {
  bool aes = false;     // AES-NI / ARMv8 AES instructions usable
  bool vaes = false;    // 256-bit VAES (requires AVX2 + OS ymm state)
  bool sha256 = false;  // SHA-NI / ARMv8 SHA2 instructions usable
};

/// Cached capability probe. Reflects the hardware only, not the policy.
const CpuCrypto& CpuCryptoSupport();

/// The active implementation policy, resolved exactly once from the
/// hardware probe and the STEGHIDE_CRYPTO_IMPL environment variable
/// ("scalar" forces the portable path everywhere; "accel" requests the
/// hardware path, silently falling back per-primitive where the CPU lacks
/// it; unset/other defaults to "accel").
CryptoImpl ActiveCryptoImpl();

/// Per-primitive outcome of the policy: true when the corresponding
/// hardware kernel will actually be used.
bool AesAccelerated();
bool Sha256Accelerated();

const char* CryptoImplName(CryptoImpl impl);

/// Test/bench override: forces the policy for the lifetime of the object
/// and restores the previous one on destruction. Only affects objects that
/// key/reset *after* construction (Aes::SetKey, Sha256 and HashDrbg latch
/// the policy per object). Not thread-safe against concurrent overrides; tests
/// install it on the main thread before spawning workers.
class ScopedCryptoImpl {
 public:
  explicit ScopedCryptoImpl(CryptoImpl impl);
  ~ScopedCryptoImpl();

  ScopedCryptoImpl(const ScopedCryptoImpl&) = delete;
  ScopedCryptoImpl& operator=(const ScopedCryptoImpl&) = delete;

 private:
  int previous_;
};

}  // namespace steghide::crypto

#endif  // STEGHIDE_CRYPTO_CPU_FEATURES_H_
