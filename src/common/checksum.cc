/**
 * @file
 * CRC32C implementation: the SSE4.2 `crc32` instruction where the CPU
 * has it, with the slice-by-4 table loop as the portable fallback.
 *
 * The instruction's latency is three cycles and its throughput one
 * per cycle, so one dependent chain runs at a third of its speed.
 * Inputs of three lanes or more therefore run three chains over
 * adjacent 680-byte lanes and fold them with a table-driven shift by
 * one lane length: a 2 KiB simulator page is one block plus an
 * 8-byte tail, a 4 KiB runtime page two blocks plus a 16-byte tail.
 * Shorter inputs (sidecar entries, headers) keep the single chain.
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
/** Bytes per lane of the three-lane kernel; a multiple of 8. */
constexpr std::size_t kLane = 680;

/**
 * Multiplication of a raw CRC register by x^(8 * kLane): the register
 * after kLane zero bytes, which is linear in the register, so it is
 * tabulated per register byte.  Folding lane A into lane B's chain
 * (started from zero) is then shift(a) ^ b.
 */
constexpr Crc32cTables
buildLaneShift()
{
    const Crc32cTables bytewise = buildTables();
    std::uint32_t bit[32] = {};
    for (unsigned b = 0; b < 32; ++b) {
        std::uint32_t crc = 1u << b;
        for (std::size_t i = 0; i < kLane; ++i)
            crc = (crc >> 8) ^ bytewise.t[0][crc & 0xFFu];
        bit[b] = crc;
    }
    Crc32cTables shift{};
    for (unsigned k = 0; k < 4; ++k)
        for (unsigned i = 0; i < 256; ++i)
            for (unsigned j = 0; j < 8; ++j)
                if ((i >> j) & 1u)
                    shift.t[k][i] ^= bit[8 * k + j];
    return shift;
}

constinit const Crc32cTables kLaneShift = buildLaneShift();

inline std::uint32_t
shiftLane(std::uint32_t crc)
{
    return kLaneShift.t[0][crc & 0xFFu] ^
           kLaneShift.t[1][(crc >> 8) & 0xFFu] ^
           kLaneShift.t[2][(crc >> 16) & 0xFFu] ^
           kLaneShift.t[3][crc >> 24];
}

inline std::uint64_t
load64(const unsigned char *p)
{
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    return word;
}

/** The raw (un-inverted) CRC register run over `len` bytes: three
 *  lanes per block while whole blocks remain, then one chain eight
 *  bytes at a time, then the tail bytewise. */
__attribute__((target("sse4.2"))) std::uint32_t
crc32cSse42(const unsigned char *p, std::size_t len, std::uint32_t crc)
{
    for (; len >= 3 * kLane; p += 3 * kLane, len -= 3 * kLane) {
        std::uint64_t a = crc;
        std::uint64_t b = 0;
        std::uint64_t c = 0;
        for (std::size_t i = 0; i < kLane; i += 8) {
            a = _mm_crc32_u64(a, load64(p + i));
            b = _mm_crc32_u64(b, load64(p + kLane + i));
            c = _mm_crc32_u64(c, load64(p + 2 * kLane + i));
        }
        crc = shiftLane(shiftLane(static_cast<std::uint32_t>(a)) ^
                        static_cast<std::uint32_t>(b)) ^
              static_cast<std::uint32_t>(c);
    }
    std::uint64_t wide = crc;
    for (; len >= 8; p += 8, len -= 8)
        wide = _mm_crc32_u64(wide, load64(p));
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
