// Published test vectors for the crypto substrate. The round-trip tests in
// crypto_test.cc prove Seal/Open are inverses; these pin the primitives to
// the standards themselves, so an implementation bug that is self-consistent
// (e.g. a wrong rotation that still round-trips) cannot hide:
//   - ChaCha20 against RFC 8439 (block function §2.3.2, AEAD-style
//     encryption §2.4.2, keystream vectors A.1),
//   - HMAC-SHA-256 (the repo's MAC, standing in for Poly1305 in the
//     encrypt-then-MAC construction) against RFC 4231,
//   - SHA-256 against the FIPS 180-4 / NIST CAVP short+long messages.
// Plus batching equivalence: the multi-block keystream path, SealWith and
// OpenWith must be byte-identical to their one-shot forms, and SHA-256 fed in
// arbitrary pieces must match SHA-256 fed one byte at a time.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "src/crypto/aead.h"
#include "src/crypto/chacha20.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha256.h"

namespace edna::crypto {
namespace {

std::vector<uint8_t> HexToBytes(const std::string& hex) {
  auto nib = [](char c) -> uint8_t {
    if (c >= '0' && c <= '9') return static_cast<uint8_t>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<uint8_t>(c - 'a' + 10);
    ADD_FAILURE() << "bad hex digit: " << c;
    return 0;
  };
  std::vector<uint8_t> out;
  std::string clean;
  for (char c : hex) {
    if (c != ' ' && c != '\n') clean.push_back(c);
  }
  EXPECT_EQ(clean.size() % 2, 0u);
  out.reserve(clean.size() / 2);
  for (size_t i = 0; i + 1 < clean.size(); i += 2) {
    out.push_back(static_cast<uint8_t>((nib(clean[i]) << 4) | nib(clean[i + 1])));
  }
  return out;
}

ChaChaKey KeyFromHex(const std::string& hex) {
  std::vector<uint8_t> b = HexToBytes(hex);
  EXPECT_EQ(b.size(), kChaChaKeySize);
  ChaChaKey k{};
  std::copy(b.begin(), b.end(), k.begin());
  return k;
}

ChaChaNonce NonceFromHex(const std::string& hex) {
  std::vector<uint8_t> b = HexToBytes(hex);
  EXPECT_EQ(b.size(), kChaChaNonceSize);
  ChaChaNonce n{};
  std::copy(b.begin(), b.end(), n.begin());
  return n;
}

std::vector<uint8_t> Bytes(std::string_view s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

// RFC 8439 §2.3.2: the ChaCha20 block function, key 00..1f, counter 1.
TEST(ChaCha20Vectors, Rfc8439BlockFunction) {
  ChaChaKey key = KeyFromHex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  ChaChaNonce nonce = NonceFromHex("000000090000004a00000000");
  std::vector<uint8_t> expect = HexToBytes(
      "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
      "d282644607 9faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
  EXPECT_EQ(ChaCha20Keystream(key, nonce, 1, 64), expect);
}

// RFC 8439 §2.4.2: 114-byte plaintext spanning two blocks, counter 1.
TEST(ChaCha20Vectors, Rfc8439SunscreenEncryption) {
  ChaChaKey key = KeyFromHex(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  ChaChaNonce nonce = NonceFromHex("000000000000004a00000000");
  std::vector<uint8_t> data = Bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  std::vector<uint8_t> expect = HexToBytes(
      "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
      "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
      "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
      "5af90bbf74a35be6b40b8eedf2785e42874d");
  ChaCha20Xor(key, nonce, 1, &data);
  EXPECT_EQ(data, expect);
  // Decryption is the same operation.
  ChaCha20Xor(key, nonce, 1, &data);
  EXPECT_EQ(data,
            Bytes("Ladies and Gentlemen of the class of '99: If I could offer "
                  "you only one tip for the future, sunscreen would be it."));
}

// RFC 8439 A.1 test vector #1: all-zero key and nonce, counter 0.
TEST(ChaCha20Vectors, Rfc8439KeystreamZeroKeyCounter0) {
  std::vector<uint8_t> expect = HexToBytes(
      "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7"
      "da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586");
  EXPECT_EQ(ChaCha20Keystream(ChaChaKey{}, ChaChaNonce{}, 0, 64), expect);
}

// RFC 8439 A.1 test vector #2: all-zero key and nonce, counter 1.
TEST(ChaCha20Vectors, Rfc8439KeystreamZeroKeyCounter1) {
  std::vector<uint8_t> expect = HexToBytes(
      "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed"
      "29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f");
  EXPECT_EQ(ChaCha20Keystream(ChaChaKey{}, ChaChaNonce{}, 1, 64), expect);
}

// The multi-block batched path must agree with generating each 64-byte block
// separately at its own counter, at every length around the batch-buffer
// boundary (kChaChaBatchBlocks * 64 bytes) and block edges.
TEST(ChaCha20Vectors, BatchedKeystreamMatchesPerBlockSplit) {
  ChaChaKey key = KeyFromHex(
      "1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0");
  ChaChaNonce nonce = NonceFromHex("000000000000004a00000001");
  const size_t batch_bytes = kChaChaBatchBlocks * 64;
  std::vector<size_t> lens;
  for (size_t l = 0; l <= 130; ++l) lens.push_back(l);
  for (size_t d = 0; d <= 65; ++d) lens.push_back(batch_bytes - 65 + d);
  lens.push_back(3 * batch_bytes + 7);
  for (size_t len : lens) {
    std::vector<uint8_t> whole = ChaCha20Keystream(key, nonce, 1, len);
    ASSERT_EQ(whole.size(), len);
    std::vector<uint8_t> split;
    uint32_t counter = 1;
    while (split.size() < len) {
      size_t take = std::min<size_t>(64, len - split.size());
      std::vector<uint8_t> block = ChaCha20Keystream(key, nonce, counter++, take);
      split.insert(split.end(), block.begin(), block.end());
    }
    ASSERT_EQ(whole, split) << "len=" << len;
  }
}

struct HmacCase {
  std::string key_hex;
  std::string data_hex;
  std::string mac_hex;
};

// RFC 4231 test cases 1-4, 6, 7 (case 5 truncates the tag; we never do).
TEST(HmacSha256Vectors, Rfc4231) {
  std::vector<HmacCase> cases = {
      {"0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b",
       "4869205468657265",  // "Hi There"
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {"4a656665",  // "Jefe"
       // "what do ya want for nothing?"
       "7768617420646f2079612077616e7420666f72206e6f7468696e673f",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
       "dddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddddd"
       "dddddddddddddddddddddddddddddddddddd",
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {"0102030405060708090a0b0c0d0e0f10111213141516171819",
       "cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd"
       "cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd",
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {std::string(131 * 2, 'x'),  // placeholder, filled below
       // "Test Using Larger Than Block-Size Key - Hash Key First"
       "54657374205573696e67204c6172676572205468616e20426c6f636b2d53697a"
       "65204b6579202d2048617368204b6579204669727374",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {std::string(131 * 2, 'x'),
       // "This is a test using a larger than block-size key and a larger
       //  than block-size data. The key needs to be hashed before being
       //  used by the HMAC algorithm."
       "5468697320697320612074657374207573696e672061206c6172676572207468"
       "616e20626c6f636b2d73697a65206b657920616e642061206c61726765722074"
       "68616e20626c6f636b2d73697a6520646174612e20546865206b6579206e6565"
       "647320746f20626520686173686564206265666f7265206265696e6720757365"
       "642062792074686520484d414320616c676f726974686d2e",
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  // Cases 6 and 7 use a 131-byte key of 0xaa.
  cases[4].key_hex = std::string();
  cases[5].key_hex = std::string();
  for (int i = 0; i < 131; ++i) {
    cases[4].key_hex += "aa";
    cases[5].key_hex += "aa";
  }
  for (size_t i = 0; i < cases.size(); ++i) {
    std::vector<uint8_t> key = HexToBytes(cases[i].key_hex);
    std::vector<uint8_t> data = HexToBytes(cases[i].data_hex);
    Sha256Digest mac = HmacSha256(key, data);
    EXPECT_EQ(DigestToHex(mac), cases[i].mac_hex) << "RFC 4231 case " << i;
  }
}

// FIPS 180-4 / NIST CAVP SHA-256 vectors.
TEST(Sha256Vectors, Fips180) {
  EXPECT_EQ(DigestToHex(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(DigestToHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(DigestToHex(Sha256::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Vectors, MillionA) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(DigestToHex(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Sha256::Update compresses whole blocks straight from the caller's buffer
// and copies only a partial head and tail; fed one byte at a time, every
// byte goes through the block buffer instead. The one-shot digest and random
// splits (empty pieces included) must match the byte-at-a-time digest at
// every length from empty to four blocks and a byte, and at the size of a
// sealed GDPR reveal record, so the head, whole-block and tail paths all
// meet block boundaries.
TEST(Sha256Vectors, UpdateSplitsMatchByteAtATime) {
  std::mt19937 rng(180);
  std::vector<size_t> lens;
  for (size_t len = 0; len <= 4 * kSha256BlockSize + 1; ++len) {
    lens.push_back(len);
  }
  lens.push_back(3456);
  for (size_t len : lens) {
    std::vector<uint8_t> msg(len);
    for (uint8_t& b : msg) {
      b = static_cast<uint8_t>(rng());
    }
    Sha256 bytewise;
    for (uint8_t b : msg) {
      bytewise.Update(&b, 1);
    }
    const Sha256Digest want = bytewise.Finish();
    EXPECT_EQ(Sha256::Hash(msg), want) << "len=" << len;
    for (int trial = 0; trial < 8; ++trial) {
      Sha256 h;
      std::string cuts;
      for (size_t at = 0; at < len;) {
        size_t most = std::min<size_t>(len - at, 150);
        size_t take = std::uniform_int_distribution<size_t>(0, most)(rng);
        h.Update(msg.data() + at, take);
        at += take;
        cuts += std::to_string(take) + " ";
      }
      EXPECT_EQ(h.Finish(), want) << "len=" << len << " pieces: " << cuts;
    }
  }
}

// SealWith / OpenWith with pre-derived keys must be byte-identical to the
// one-shot Seal / Open — the vault relies on this to hoist key derivation
// out of its fetch and batch-store loops without changing stored bytes.
TEST(AeadBatch, SealWithMatchesSealByteForByte) {
  std::vector<uint8_t> master(32, 0x5c);
  SealKeys keys = DeriveSealKeys(master);
  ChaChaNonce nonce = NonceFromHex("0102030405060708090a0b0c");
  std::vector<uint8_t> plain = Bytes("reveal record payload, moderately sized");
  SealedBox a = Seal(master, nonce, plain, "owner#7");
  SealedBox b = SealWith(keys, nonce, plain, "owner#7");
  EXPECT_EQ(a.Serialize(), b.Serialize());

  auto via_open = Open(master, a, "owner#7");
  auto via_openwith = OpenWith(keys, b, "owner#7");
  ASSERT_TRUE(via_open.ok());
  ASSERT_TRUE(via_openwith.ok());
  EXPECT_EQ(*via_open, plain);
  EXPECT_EQ(*via_openwith, plain);

  // Tampering still fails through the pre-derived path.
  b.ciphertext[0] ^= 1;
  EXPECT_FALSE(OpenWith(keys, b, "owner#7").ok());
  EXPECT_FALSE(OpenWith(keys, a, "other#7").ok());
}

}  // namespace
}  // namespace edna::crypto
