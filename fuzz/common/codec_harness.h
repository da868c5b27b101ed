#ifndef OLXP_FUZZ_COMMON_CODEC_HARNESS_H_
#define OLXP_FUZZ_COMMON_CODEC_HARNESS_H_

#include <cstddef>
#include <cstdint>

namespace olxp::fuzz {

/// Sealed-block codec harness: derives one block's worth of column values
/// (plus null/dead maps) from fuzzer bytes, encodes it (dict/RLE/
/// bit-packed/flat, or the raw boxed fallback) and checks the property set
/// that the scan kernels rely on:
///   - ValueAt returns the input slot by slot (dead slots read NULL)
///   - Materialize() round-trips to the same values
///   - re-encoding the materialized column is value-identical
///   - zone min/max equal a brute-force min/max of the live non-null values
///   - ZoneExcludes never refutes a block that holds a satisfying value
/// Aborts on any violation.
int CodecOne(const uint8_t* data, size_t size);

}  // namespace olxp::fuzz

#endif  // OLXP_FUZZ_COMMON_CODEC_HARNESS_H_
