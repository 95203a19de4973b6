// Resumable campaign result store.
//
// Every completed work item is appended (and flushed) to a JSONL file
// keyed by a content hash of (campaign fingerprint, mutant id), so an
// interrupted campaign can restart and skip finished items.  The first
// line is a header carrying the campaign fingerprint — a hash of the
// campaign seed, the suite identity, the mutant population, and the
// oracle configuration.  Opening a store whose header names a
// *different* fingerprint discards the stale contents rather than
// resuming from results that a different campaign produced.
#pragma once

#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "stc/campaign/jsonl.h"

namespace stc::campaign {

/// The persisted outcome of one completed work item.
struct ItemRecord {
    std::string key;        ///< content key: hex(hash(fingerprint, mutant id))
    std::string mutant_id;  ///< for human audit; not used for matching
    std::size_t item_index = 0;
    std::string fate;       ///< mutation::to_string(MutantFate)
    std::string reason;     ///< oracle::to_string(KillReason)
    bool hit_by_suite = false;
    bool killed_by_probe = false;
    /// Killed only by the reference-model channel
    /// (MutantOutcome::model_only).  Serialized only when true, so
    /// stores from model-less campaigns are byte-unchanged.
    bool model_only = false;
    std::uint64_t item_seed = 0;
    double wall_ms = 0.0;
    /// Sandbox termination kind ("crash-signal:<n>" / "timeout" /
    /// "resource-limit" / "worker-exit:<c>"); empty for in-process runs
    /// and isolated items that completed normally.  Serialized only
    /// when non-empty, so in-process stores are byte-unchanged.
    std::string sandbox;
    /// Killed by a killer `stc::kill` synthesized after the campaign
    /// (MutantOutcome::synthesized).  Serialized only when true, so
    /// stores a kill pass never touched are byte-unchanged.
    bool synthesized = false;

    [[nodiscard]] JsonObject to_json() const;
    [[nodiscard]] static std::optional<ItemRecord> from_json(const JsonObject& o);
};

/// A read-only look at a result store on disk — unlike opening a
/// ResultStore, peeking never truncates, rewrites, or appends.
/// `stc::kill` uses this to enumerate a finished campaign's survivors:
/// a fingerprint mismatch there is a hard error naming the store, not a
/// silent start-over.
struct StorePeek {
    std::string fingerprint;          ///< store-header campaign value
    std::vector<ItemRecord> records;  ///< file order (append order)
    std::size_t dropped = 0;          ///< torn/unparseable lines skipped

    [[nodiscard]] const ItemRecord* find(const std::string& key) const;
};

/// Read `path` without modifying it.  std::nullopt with `*error` set
/// when the file is missing/unreadable or its header is not a store
/// header.  Torn or malformed record lines are counted in `dropped`
/// and skipped, mirroring the ResultStore recovery rules.
[[nodiscard]] std::optional<StorePeek> peek_store(const std::string& path,
                                                  std::string* error);

/// Rewrite `path` from scratch: header for `fingerprint`, then
/// `records` in order.  Crash-safe: the content goes to `PATH.tmp`,
/// which is fsynced and renamed over `path` (then the directory is
/// fsynced), so a kill at any instant leaves either the old store or
/// the new one.  Used by `stc::kill` to publish raised fates and by
/// ResultStore to drop a torn tail; byte-deterministic for identical
/// inputs.  Throws stc::Error when the file cannot be
/// written.
void rewrite_store(const std::string& path, const std::string& fingerprint,
                   const std::vector<ItemRecord>& records);

/// Append-only, thread-safe store of completed items.
class ResultStore {
public:
    /// Open `path` for campaign `fingerprint`.  When the file already
    /// exists with a matching header, its records are loaded (resume);
    /// on a fingerprint mismatch or corrupt header the file is started
    /// over.  A torn tail — the final line cut short by the very
    /// interruption that makes resume necessary (SIGKILL mid-append) —
    /// is detected (missing trailing newline or an unparseable line),
    /// dropped, and the file is rewritten from the surviving records
    /// before appending resumes, so the partial line can never fuse
    /// with the next record.
    ResultStore(const std::string& path, const std::string& fingerprint);

    [[nodiscard]] const std::string& fingerprint() const noexcept {
        return fingerprint_;
    }

    /// Records recovered from a previous run.
    [[nodiscard]] std::size_t loaded() const noexcept { return loaded_; }

    /// Torn or malformed lines dropped (and purged from the file) while
    /// loading — 0 for a cleanly written store.
    [[nodiscard]] std::size_t dropped() const noexcept { return dropped_; }

    [[nodiscard]] const ItemRecord* find(const std::string& key) const;

    [[nodiscard]] const std::string& path() const noexcept { return path_; }

    /// Append one completed item and flush it to disk.  Thread-safe and
    /// never throws (pool tasks must not): a write that fails (disk
    /// full, file size limit) marks the store failed and later appends
    /// skip the file, whose torn last line a resume drops.  The caller
    /// checks failed() once the run is over.
    void append(const ItemRecord& record);

    /// Some append did not reach the file.  Thread-safe.
    [[nodiscard]] bool failed();

private:
    std::string path_;
    std::string fingerprint_;
    std::map<std::string, ItemRecord> records_;
    std::size_t loaded_ = 0;
    std::size_t dropped_ = 0;
    std::mutex mutex_;
    std::ofstream out_;
    bool failed_ = false;
};

}  // namespace stc::campaign
