// stc::wire — the framing layer shared by every byte stream a campaign
// crosses: the sandbox fork-server pipes (raw frames) and the
// `concat serve` / `concat dispatch` sockets (versioned messages).
// docs/FORMATS.md §8 and §10 are the normative spec.
//
// Two codecs over one core:
//
//   raw frame      = u32le payload length | payload
//     The sandbox pipe codec.  Both ends are forked from one binary,
//     so the frame needs no identity.
//
//   message        = "STCW" magic | u8 version | u8 type | u32le length
//                    | payload
//     The socket wire protocol.  Peers are separate processes, so every
//     frame carries the magic (is this even our protocol?), the
//     protocol version (is this peer the same protocol?), and a message
//     type (what is it?).  The version is the only compatibility check:
//     a peer of any other version is refused by the decoder
//     (Decoder::Status::BadVersion), never negotiated with.
//
// Both decoders are incremental and tolerant of torn input: a frame cut
// short by a dying peer parks the decoder in NeedMore, never in a crash
// or an over-allocation, and a hostile or corrupt length prefix is a
// decode error, not a request for gigabytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace stc::wire {

/// Upper bound on any frame payload (raw or message).  A length prefix
/// above this is a protocol violation, not an allocation request.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;  // 64 MiB

/// The 4 magic bytes opening every versioned message.
inline constexpr char kMagic[4] = {'S', 'T', 'C', 'W'};

/// Protocol version this build speaks.  Bumped on any change to the
/// header layout, the message-type table, or a payload schema.
inline constexpr std::uint8_t kProtocolVersion = 2;

/// Fixed header size of a versioned message (magic + version + type +
/// u32le payload length).
inline constexpr std::size_t kMessageHeaderSize = 10;

/// Message types of protocol version 2 (docs/FORMATS.md §10).
enum class MessageType : std::uint8_t {
    Hello = 1,      ///< coordinator -> worker: campaign handshake
    HelloAck = 2,   ///< worker -> coordinator: accept / reject
    Work = 3,       ///< coordinator -> worker: one campaign work item
    Result = 4,     ///< worker -> coordinator: the item's outcome
    Ping = 5,       ///< coordinator -> worker: keepalive probe
    Pong = 6,       ///< worker -> coordinator: keepalive answer
    Error = 7,      ///< either direction: fatal protocol/handshake error
    Shutdown = 8,   ///< coordinator -> worker: campaign complete, close
    Telemetry = 9,  ///< worker -> coordinator: streamed spans and events
};

/// True for the types above — a received type outside the table is a
/// decode error (a newer peer or stream corruption).
[[nodiscard]] bool message_type_known(std::uint8_t raw) noexcept;

[[nodiscard]] const char* to_string(MessageType type) noexcept;

// ---------------------------------------------------------------------
// Byte-level helpers (shared by both codecs and their tests).

/// Explicit little-endian u32, byte by byte — documentable and
/// independent of host endianness.
void encode_u32le(std::uint32_t value, unsigned char out[4]) noexcept;
[[nodiscard]] std::uint32_t decode_u32le(const unsigned char in[4]) noexcept;

/// write(2) exactly n bytes; loops over partial writes and EINTR.
/// False on error — most importantly EPIPE after the peer died (the
/// process must ignore or handle SIGPIPE; WorkerDaemon/Coordinator and
/// the sandbox pool all set that up).
[[nodiscard]] bool write_exact(int fd, const void* data,
                               std::size_t n) noexcept;

/// read(2) exactly n bytes; false on EOF or error.  `any_read` reports
/// whether at least one byte arrived (distinguishes clean EOF from a
/// torn frame).
[[nodiscard]] bool read_exact(int fd, void* data, std::size_t n,
                              bool* any_read) noexcept;

// ---------------------------------------------------------------------
// Raw frames — the sandbox pipe codec (length | payload).

[[nodiscard]] bool write_raw_frame(int fd, std::string_view payload) noexcept;

/// Blocking read of one raw frame.  std::nullopt on clean EOF, a torn
/// frame, or an oversized length prefix.
[[nodiscard]] std::optional<std::string> read_raw_frame(int fd);

/// Incremental raw-frame decoder (the sandbox parent's poll-loop side).
class RawFrameBuffer {
public:
    void feed(const char* data, std::size_t n);

    /// The next complete payload, or std::nullopt while one is pending.
    [[nodiscard]] std::optional<std::string> take_frame();

    /// True when the buffered length prefix exceeds kMaxFramePayload —
    /// unrecoverable; the owner should discard the peer.
    [[nodiscard]] bool oversized() const noexcept;

    [[nodiscard]] std::size_t pending_bytes() const noexcept {
        return bytes_.size();
    }

    void clear() noexcept { bytes_.clear(); }

private:
    std::vector<char> bytes_;
};

// ---------------------------------------------------------------------
// Versioned messages — the socket wire protocol.

struct Message {
    MessageType type = MessageType::Error;
    std::string payload;
};

/// Render one versioned message (header + payload) into a byte string.
[[nodiscard]] std::string encode_message(MessageType type,
                                         std::string_view payload);

/// Write one versioned message; false on I/O error or oversized payload.
[[nodiscard]] bool write_message(int fd, MessageType type,
                                 std::string_view payload) noexcept;

/// Blocking read of one versioned message.  std::nullopt on clean EOF,
/// torn input, bad magic/version/type, or an oversized length.
[[nodiscard]] std::optional<Message> read_message(int fd);

/// Incremental versioned-message decoder.
///
/// Feed bytes as they arrive; next() yields complete messages until the
/// buffer runs dry (NeedMore) or the stream proves unusable.  All error
/// states are terminal for the connection: framing has no resync point,
/// so the owner must close the peer — exactly what the coordinator's
/// dead-worker handling and the daemon's session teardown do.
class Decoder {
public:
    enum class Status {
        NeedMore,    ///< no complete message buffered yet
        Ok,          ///< a message was produced
        BadMagic,    ///< first 4 bytes are not "STCW" — not our protocol
        BadVersion,  ///< peer speaks a different protocol version
        BadType,     ///< version is ours but the type byte is unknown
        Oversized,   ///< length prefix exceeds kMaxFramePayload
    };

    void feed(const char* data, std::size_t n);
    void feed(std::string_view bytes) { feed(bytes.data(), bytes.size()); }

    /// Decode the next message.  After any error status the decoder is
    /// poisoned: further next() calls repeat the error.
    [[nodiscard]] Status next(Message* out);

    /// The version byte of a BadVersion stream (what the peer speaks).
    [[nodiscard]] std::uint8_t peer_version() const noexcept {
        return peer_version_;
    }

    [[nodiscard]] std::size_t pending_bytes() const noexcept {
        return bytes_.size();
    }

private:
    std::vector<char> bytes_;
    Status poisoned_ = Status::NeedMore;
    std::uint8_t peer_version_ = 0;
};

[[nodiscard]] const char* to_string(Decoder::Status status) noexcept;

}  // namespace stc::wire
