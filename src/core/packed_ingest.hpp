// PackedIngest: the one remaining FASTQ parse of a --read-store=packed run.
//
// Walks the index's chunk table in order, parses each chunk once with the
// run's ParseMode, and packs every record into an io::PackedStore arena.
// Contiguous chunk ranges are parsed and packed by parallel workers into
// shard builders which merge in chunk order, so the arena is identical for
// any thread count.  Lenient-parse skips are recorded in the arena
// (skipped-ID list) so packed and text pipelines agree on exactly which
// records exist — the sentinel fill after KmerGen pads the same gaps either
// way.
#pragma once

#include "core/indices.hpp"
#include "io/fastq.hpp"
#include "io/packed_store.hpp"

namespace metaprep::core {

/// Parse every chunk of @p index with @p threads workers into an in-memory
/// 2-bit arena.  Throws util::Error on I/O failure, and on parse failure in
/// strict mode.
io::PackedStore build_packed_store_in_memory(const DatasetIndex& index,
                                             io::ParseMode parse_mode, int threads,
                                             io::PackedStoreStats* stats = nullptr);

}  // namespace metaprep::core
