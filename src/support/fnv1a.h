/**
 * @file
 * 64-bit FNV-1a: the one deterministic byte hash behind plan-cache
 * keys, trace flow-arrow ids and base-point fingerprints. Stable
 * across processes and platforms, so its values may be persisted.
 */

#ifndef DISTMSM_SUPPORT_FNV1A_H
#define DISTMSM_SUPPORT_FNV1A_H

#include <cstdint>
#include <string_view>

namespace distmsm::support {

/** Incremental FNV-1a state: feed bytes, read `value`. */
struct Fnv1a
{
    std::uint64_t value = 14695981039346656037ull;

    void
    byte(unsigned char b)
    {
        value ^= b;
        value *= 1099511628211ull;
    }

    /** The eight bytes of @p v, least significant first. */
    void
    word(std::uint64_t v)
    {
        for (int b = 0; b < 8; ++b)
            byte(static_cast<unsigned char>(v >> (8 * b)));
    }

    void
    bytes(std::string_view s)
    {
        for (const char c : s)
            byte(static_cast<unsigned char>(c));
    }
};

/** FNV-1a of a whole string. */
inline std::uint64_t
fnv1a(std::string_view s)
{
    Fnv1a h;
    h.bytes(s);
    return h.value;
}

} // namespace distmsm::support

#endif // DISTMSM_SUPPORT_FNV1A_H
