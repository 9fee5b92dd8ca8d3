/**
 * @file
 * CRC32C implementation: the SSE4.2 `crc32` instruction where the CPU
 * has it, with the slice-by-4 table loop as the portable fallback.
 *
 * The dispatch is signal-safe because it is one load and a branch:
 * __builtin_cpu_supports() reads the feature word a libgcc
 * constructor fills at startup.  Before that word is set the check
 * reads false, which only picks the (equal-valued) portable loop.
 * It is neither an ifunc (a resolver the dynamic linker runs) nor a
 * function-local static flag (a guard variable).  The tables are
 * built at compile time and stored constinit, so neither path can
 * trip lazy initialization — this TU is on the pathlint sigsafe
 * fault-path audit list and must stay free of calls, allocation, and
 * guard variables.
 */

#include "common/checksum.hh"

#if defined(__x86_64__)
#include <nmmintrin.h>

#include <cstring>
#endif

namespace viyojit::common
{

namespace
{

struct Crc32cTables
{
    std::uint32_t t[4][256];
};

constexpr Crc32cTables
buildTables()
{
    constexpr std::uint32_t poly = 0x82F63B78u; // Castagnoli, reflected
    Crc32cTables tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1u) ? poly : 0u);
        tables.t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
        tables.t[1][i] =
            (tables.t[0][i] >> 8) ^ tables.t[0][tables.t[0][i] & 0xFFu];
        tables.t[2][i] =
            (tables.t[1][i] >> 8) ^ tables.t[0][tables.t[1][i] & 0xFFu];
        tables.t[3][i] =
            (tables.t[2][i] >> 8) ^ tables.t[0][tables.t[2][i] & 0xFFu];
    }
    return tables;
}

constinit const Crc32cTables kTables = buildTables();

#if defined(__x86_64__)
/** The raw (un-inverted) CRC register run over `len` bytes, eight
 *  at a time, then the tail bytewise. */
__attribute__((target("sse4.2"))) std::uint32_t
crc32cSse42(const unsigned char *p, std::size_t len, std::uint32_t crc)
{
    std::uint64_t wide = crc;
    for (; len >= 8; p += 8, len -= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, sizeof word);
        wide = _mm_crc32_u64(wide, word);
    }
    crc = static_cast<std::uint32_t>(wide);
    while (len--)
        crc = _mm_crc32_u8(crc, *p++);
    return crc;
}
#endif

} // namespace

std::uint32_t
crc32cPortable(const void *data, std::size_t len, std::uint32_t seed)
{
    const auto *p = static_cast<const unsigned char *>(data);
    std::uint32_t crc = ~seed;
    while (len >= 4) {
        crc ^= static_cast<std::uint32_t>(p[0]) |
               (static_cast<std::uint32_t>(p[1]) << 8) |
               (static_cast<std::uint32_t>(p[2]) << 16) |
               (static_cast<std::uint32_t>(p[3]) << 24);
        crc = kTables.t[3][crc & 0xFFu] ^
              kTables.t[2][(crc >> 8) & 0xFFu] ^
              kTables.t[1][(crc >> 16) & 0xFFu] ^
              kTables.t[0][(crc >> 24) & 0xFFu];
        p += 4;
        len -= 4;
    }
    while (len--)
        crc = (crc >> 8) ^ kTables.t[0][(crc ^ *p++) & 0xFFu];
    return ~crc;
}

std::uint32_t
crc32c(const void *data, std::size_t len, std::uint32_t seed)
{
#if defined(__x86_64__)
    if (__builtin_cpu_supports("sse4.2"))
        return ~crc32cSse42(static_cast<const unsigned char *>(data),
                            len, ~seed);
#endif
    return crc32cPortable(data, len, seed);
}

std::uint32_t
crc32cU64(std::uint64_t value, std::uint32_t seed)
{
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<unsigned char>(value >> (8 * i));
    return crc32c(bytes, sizeof bytes, seed);
}

} // namespace viyojit::common
