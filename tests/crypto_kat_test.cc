// Known-answer tests for the crypto layer against published NIST/RFC/IEEE
// vectors: FIPS-197 (AES), SP 800-38A (CTR), IEEE 1619 (XTS), FIPS 180-4
// (SHA-256), RFC 4231 (HMAC-SHA256), and RFC 4493 (AES-CMAC).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "crypto/aes.h"
#include "crypto/aes_ctr.h"
#include "crypto/aes_xts.h"
#include "crypto/cmac.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace secddr::crypto {
namespace {

std::vector<std::uint8_t> unhex(const std::string& s) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < s.size(); i += 2)
    out.push_back(
        static_cast<std::uint8_t>(std::stoi(s.substr(i, 2), nullptr, 16)));
  return out;
}

std::string hex(const std::uint8_t* p, std::size_t n) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  for (std::size_t i = 0; i < n; ++i) {
    s += digits[p[i] >> 4];
    s += digits[p[i] & 0xf];
  }
  return s;
}

template <typename C>
std::string hex(const C& c) {
  return hex(c.data(), c.size());
}

template <std::size_t N>
std::array<std::uint8_t, N> from_hex(const std::string& s) {
  std::array<std::uint8_t, N> a{};
  const auto v = unhex(s);
  EXPECT_EQ(v.size(), N) << "malformed hex literal: " << s;
  std::memcpy(a.data(), v.data(), std::min(v.size(), N));
  return a;
}

// --- AES (FIPS-197 appendix C, SP 800-38A F.1) ----------------------------

TEST(AesKat, Fips197Appendix_C1_Aes128) {
  const Aes aes(from_hex<16>("000102030405060708090a0b0c0d0e0f"));
  const Block pt = from_hex<16>("00112233445566778899aabbccddeeff");
  const Block ct = aes.encrypt(pt);
  EXPECT_EQ(hex(ct), "69c4e0d86a7b0430d8cdb78070b4c55a");
  EXPECT_EQ(hex(aes.decrypt(ct)), hex(pt));
}

TEST(AesKat, Fips197Appendix_C3_Aes256) {
  const Aes aes(from_hex<32>(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"));
  const Block pt = from_hex<16>("00112233445566778899aabbccddeeff");
  const Block ct = aes.encrypt(pt);
  EXPECT_EQ(hex(ct), "8ea2b7ca516745bfeafc49904b496089");
  EXPECT_EQ(hex(aes.decrypt(ct)), hex(pt));
}

TEST(AesKat, Sp800_38a_EcbAes128) {
  const Aes aes(from_hex<16>("2b7e151628aed2a6abf7158809cf4f3c"));
  const std::pair<const char*, const char*> vec[] = {
      {"6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"},
      {"ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"},
      {"30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"},
      {"f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"},
  };
  for (const auto& [pt, ct] : vec) {
    EXPECT_EQ(hex(aes.encrypt(from_hex<16>(pt))), ct);
    EXPECT_EQ(hex(aes.decrypt(from_hex<16>(ct))), pt);
  }
}

// --- AES-CTR (SP 800-38A F.5.1) -------------------------------------------

TEST(AesCtrKat, Sp800_38a_CtrAes128) {
  const Aes aes(from_hex<16>("2b7e151628aed2a6abf7158809cf4f3c"));
  const Block iv = from_hex<16>("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  std::vector<std::uint8_t> data = unhex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");
  ctr_xcrypt(aes, iv, data.data(), data.size());
  EXPECT_EQ(hex(data.data(), data.size()),
            "874d6191b620e3261bef6864990db6ce"
            "9806f66b7970fdff8617187bb9fffdff"
            "5ae4df3edbd5d35e5b4f09020db03eab"
            "1e031dda2fbe03d1792170a0f3009cee");
  // Decrypt == encrypt for a stream cipher.
  ctr_xcrypt(aes, iv, data.data(), data.size());
  EXPECT_EQ(hex(data.data(), data.size()),
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51"
            "30c81c46a35ce411e5fbc1191a0a52ef"
            "f69f2445df4f9b17ad2b417be66c3710");
}

TEST(AesCtrKat, KeystreamMatchesXcrypt) {
  const Aes aes(from_hex<16>("2b7e151628aed2a6abf7158809cf4f3c"));
  const Block iv = from_hex<16>("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const auto ks = ctr_keystream(aes, iv, 33);
  std::vector<std::uint8_t> zeros(33, 0);
  ctr_xcrypt(aes, iv, zeros.data(), zeros.size());
  EXPECT_EQ(hex(ks.data(), ks.size()), hex(zeros.data(), zeros.size()));
}

// --- AES-XTS (IEEE 1619-2007 annex vectors) -------------------------------

TEST(AesXtsKat, Ieee1619_Vector1) {
  AesXts xts(from_hex<16>("00000000000000000000000000000000"),
             from_hex<16>("00000000000000000000000000000000"));
  std::vector<std::uint8_t> data(32, 0);
  xts.encrypt(0, data.data(), data.size());
  EXPECT_EQ(hex(data.data(), data.size()),
            "917cf69ebd68b2ec9b9fe9a3eadda692"
            "cd43d2f59598ed858c02c2652fbf922e");
  xts.decrypt(0, data.data(), data.size());
  EXPECT_EQ(hex(data.data(), data.size()), std::string(64, '0'));
}

TEST(AesXtsKat, Ieee1619_Vector2) {
  AesXts xts(from_hex<16>("11111111111111111111111111111111"),
             from_hex<16>("22222222222222222222222222222222"));
  std::vector<std::uint8_t> data(32, 0x44);
  xts.encrypt(0x3333333333ull, data.data(), data.size());
  EXPECT_EQ(hex(data.data(), data.size()),
            "c454185e6a16936e39334038acef838b"
            "fb186fff7480adc4289382ecd6d394f0");
  xts.decrypt(0x3333333333ull, data.data(), data.size());
  EXPECT_EQ(hex(data.data(), data.size()), std::string(64, '4'));
}

TEST(AesXtsKat, Ieee1619_Vector3) {
  AesXts xts(from_hex<16>("fffefdfcfbfaf9f8f7f6f5f4f3f2f1f0"),
             from_hex<16>("22222222222222222222222222222222"));
  std::vector<std::uint8_t> data(32, 0x44);
  xts.encrypt(0x3333333333ull, data.data(), data.size());
  EXPECT_EQ(hex(data.data(), data.size()),
            "af85336b597afc1a900b2eb21ec949d2"
            "92df4c047e0b21532186a5971a227a89");
  xts.decrypt(0x3333333333ull, data.data(), data.size());
  EXPECT_EQ(hex(data.data(), data.size()), std::string(64, '4'));
}

// --- SHA-256 (FIPS 180-4 / NIST examples) ---------------------------------

TEST(Sha256Kat, Fips180_ShortMessages) {
  EXPECT_EQ(hex(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb924"
            "27ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223"
            "b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      hex(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039"
      "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Kat, MillionA) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67"
            "f1809a48a497200e046d39ccc7112cd0");
}

// --- HMAC-SHA256 (RFC 4231) -----------------------------------------------

TEST(HmacKat, Rfc4231) {
  struct Case {
    std::string key_hex, data_hex, mac_hex;
  };
  const std::vector<Case> cases = {
      // Test case 1
      {"0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b",
       "4869205468657265",  // "Hi There"
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      // Test case 2 ("Jefe" / "what do ya want for nothing?")
      {"4a656665",
       "7768617420646f2079612077616e7420666f72206e6f7468696e673f",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      // Test case 3 (50 x 0xdd under 20 x 0xaa)
      {"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
       "dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd"
       "dddddddddddddddddddddddddddddddddddd",
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      // Test case 4 (50 x 0xcd under 25-byte key)
      {"0102030405060708090a0b0c0d0e0f10111213141516171819",
       "cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd"
       "cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd",
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      // Test case 6 (131 x 0xaa key, hashed first)
      {std::string(262, 'a'),
       "54657374205573696e67204c6172676572205468616e20426c6f636b2d53697a"
       "65204b6579202d2048617368204b6579204669727374",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      // Empty key and message (beyond RFC 4231): the zero-length key an
      // hkdf_extract with an empty salt passes.
      {"", "",
       "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad"},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(hex(hmac_sha256(unhex(cases[i].key_hex),
                              unhex(cases[i].data_hex))),
              cases[i].mac_hex);
  }
}

// --- AES-CMAC (RFC 4493 section 4) ----------------------------------------

TEST(CmacKat, Rfc4493) {
  const Cmac cmac(from_hex<16>("2b7e151628aed2a6abf7158809cf4f3c"));
  const std::vector<std::uint8_t> msg = unhex(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52ef"
      "f69f2445df4f9b17ad2b417be66c3710");

  EXPECT_EQ(hex(cmac.tag(msg.data(), 0)),
            "bb1d6929e95937287fa37d129b756746");
  EXPECT_EQ(hex(cmac.tag(msg.data(), 16)),
            "070a16b46b4d4144f79bdd9dd04a287c");
  EXPECT_EQ(hex(cmac.tag(msg.data(), 40)),
            "dfa66747de9ae63030ca32611497c827");
  EXPECT_EQ(hex(cmac.tag(msg.data(), 64)),
            "51f0bebf7e3b9d92fc49741779363cfe");
}

TEST(CmacKat, Tag64IsTruncatedTag) {
  const Cmac cmac(from_hex<16>("2b7e151628aed2a6abf7158809cf4f3c"));
  const std::vector<std::uint8_t> msg =
      unhex("6bc1bee22e409f96e93d7e117393172a");
  const Block full = cmac.tag(msg.data(), msg.size());
  std::uint64_t expect = 0;
  std::memcpy(&expect, full.data(), 8);
  EXPECT_EQ(cmac.tag64(msg.data(), msg.size()), expect);
}

}  // namespace
}  // namespace secddr::crypto
