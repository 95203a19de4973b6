#include "stc/campaign/result_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <iterator>
#include <string_view>
#include <utility>
#include <vector>

#include "stc/support/error.h"

namespace stc::campaign {

JsonObject ItemRecord::to_json() const {
    JsonObject o;
    o.set("key", key)
        .set("mutant", mutant_id)
        .set("item", static_cast<std::uint64_t>(item_index))
        .set("fate", fate)
        .set("reason", reason)
        .set("hit", hit_by_suite)
        .set("probe_kill", killed_by_probe)
        .set("item_seed", item_seed)
        .set("wall_ms", wall_ms);
    if (model_only) o.set("model_only", true);
    if (!sandbox.empty()) o.set("sandbox", sandbox);
    if (synthesized) o.set("synthesized", true);
    return o;
}

std::optional<ItemRecord> ItemRecord::from_json(const JsonObject& o) {
    ItemRecord r;
    const auto key = o.get_string("key");
    const auto mutant = o.get_string("mutant");
    const auto item = o.get_uint("item");
    const auto fate = o.get_string("fate");
    const auto reason = o.get_string("reason");
    const auto hit = o.get_bool("hit");
    const auto probe_kill = o.get_bool("probe_kill");
    if (!key || !mutant || !item || !fate || !reason || !hit || !probe_kill) {
        return {};
    }
    r.key = *key;
    r.mutant_id = *mutant;
    r.item_index = static_cast<std::size_t>(*item);
    r.fate = *fate;
    r.reason = *reason;
    r.hit_by_suite = *hit;
    r.killed_by_probe = *probe_kill;
    r.model_only = o.get_bool("model_only").value_or(false);
    r.item_seed = o.get_uint("item_seed").value_or(0);
    r.wall_ms = o.get_double("wall_ms").value_or(0.0);
    r.sandbox = o.get_string("sandbox").value_or("");
    r.synthesized = o.get_bool("synthesized").value_or(false);
    return r;
}

namespace {

std::string header_line(const std::string& fingerprint) {
    JsonObject header;
    header.set("event", "store-header").set("campaign", fingerprint);
    return header.to_line() + '\n';
}

}  // namespace

const ItemRecord* StorePeek::find(const std::string& key) const {
    for (const ItemRecord& r : records) {
        if (r.key == key) return &r;
    }
    return nullptr;
}

std::optional<StorePeek> peek_store(const std::string& path,
                                    std::string* error) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        if (error != nullptr) *error = "cannot open result store: " + path;
        return {};
    }
    const std::string content{std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>()};
    const bool terminated = !content.empty() && content.back() == '\n';
    StorePeek out;
    std::size_t pos = 0;
    bool header_line = true;
    while (pos < content.size()) {
        const std::size_t nl = content.find('\n', pos);
        const bool last = nl == std::string::npos;
        const std::string_view line(content.data() + pos,
                                    (last ? content.size() : nl) - pos);
        pos = last ? content.size() : nl + 1;
        const bool torn = last && !terminated;
        if (header_line) {
            header_line = false;
            const auto header = JsonObject::parse(line);
            const auto campaign =
                header ? header->get_string("campaign") : std::nullopt;
            if (!header || header->get_string("event") != "store-header" ||
                !campaign || torn) {
                if (error != nullptr) {
                    *error = "not a result store (bad header): " + path;
                }
                return {};
            }
            out.fingerprint = *campaign;
            continue;
        }
        const auto parsed = JsonObject::parse(line);
        auto record = parsed ? ItemRecord::from_json(*parsed) : std::nullopt;
        if (!record || torn) {
            ++out.dropped;
            continue;
        }
        out.records.push_back(std::move(*record));
    }
    if (header_line) {
        if (error != nullptr) *error = "empty result store: " + path;
        return {};
    }
    return out;
}

void rewrite_store(const std::string& path, const std::string& fingerprint,
                   const std::vector<ItemRecord>& records) {
    std::string content = header_line(fingerprint);
    for (const ItemRecord& record : records) {
        content += record.to_json().to_line();
        content += '\n';
    }

    // Write-temp + fsync + rename + fsync(dir): a kill at any instant
    // leaves either the old file or the complete new one at `path`,
    // never a truncated mix.
    const std::string tmp = path + ".tmp";
    const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) throw Error("cannot rewrite result store: " + path);
    std::size_t written = 0;
    while (written < content.size()) {
        const ssize_t n = ::write(fd, content.data() + written, content.size() - written);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        written += static_cast<std::size_t>(n);
    }
    const bool synced = written == content.size() && ::fsync(fd) == 0;
    ::close(fd);
    if (!synced || ::rename(tmp.c_str(), path.c_str()) != 0) {
        ::unlink(tmp.c_str());
        throw Error("cannot rewrite result store: " + path);
    }
    const std::size_t slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
    if (dir_fd >= 0) {
        ::fsync(dir_fd);  // persist the rename itself
        ::close(dir_fd);
    }
}

ResultStore::ResultStore(const std::string& path, const std::string& fingerprint)
    : path_(path), fingerprint_(fingerprint) {
    // A store of this campaign resumes.  A torn tail (the final line cut
    // short by the interruption that makes resume necessary) or a
    // malformed line is dropped and the file rewritten from the
    // surviving records before appending resumes, so the partial line
    // can never fuse with the next record.  Anything else — missing,
    // not a store, another campaign's — holds nothing of this campaign
    // and is simply truncated: no rewrite, so no fsync on the common
    // fresh-start path.
    const std::optional<StorePeek> peek = peek_store(path, nullptr);
    if (peek && peek->fingerprint == fingerprint_) {
        for (const ItemRecord& record : peek->records) {
            records_.insert_or_assign(record.key, record);
        }
        loaded_ = records_.size();
        dropped_ = peek->dropped;
        if (dropped_ > 0) rewrite_store(path, fingerprint_, peek->records);
        out_.open(path, std::ios::app);
    } else {
        out_.open(path, std::ios::trunc);
        out_ << header_line(fingerprint_);
        out_.flush();
    }
    if (!out_) throw Error("cannot open result store: " + path);
}

const ItemRecord* ResultStore::find(const std::string& key) const {
    const auto it = records_.find(key);
    return it == records_.end() ? nullptr : &it->second;
}

void ResultStore::append(const ItemRecord& record) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!failed_) {
        out_ << record.to_json().to_line() << '\n';
        out_.flush();
        failed_ = !out_;
    }
    records_.insert_or_assign(record.key, record);
}

bool ResultStore::failed() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return failed_;
}

}  // namespace stc::campaign
