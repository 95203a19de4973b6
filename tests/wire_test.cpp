// stc::wire framing tests: the versioned message codec every `concat
// serve` / `concat dispatch` socket speaks and the raw frame codec the
// sandbox pipes speak (docs/FORMATS.md §10).  The torn-input sweep is
// the load-bearing one — a frame truncated at EVERY byte offset must
// park the decoder in NeedMore, never crash, never produce a message —
// because that is exactly the byte stream a SIGKILLed peer leaves
// behind.
#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <vector>

#include "stc/wire/frame.h"

namespace stc::wire {
namespace {

const MessageType kAllTypes[] = {
    MessageType::Hello, MessageType::HelloAck, MessageType::Work,
    MessageType::Result, MessageType::Ping,    MessageType::Pong,
    MessageType::Error, MessageType::Shutdown, MessageType::Telemetry,
};

// --------------------------------------------------------------- helpers

TEST(WireBytes, U32RoundTripIsLittleEndian) {
    unsigned char buffer[4];
    encode_u32le(0x11223344u, buffer);
    EXPECT_EQ(buffer[0], 0x44u);
    EXPECT_EQ(buffer[1], 0x33u);
    EXPECT_EQ(buffer[2], 0x22u);
    EXPECT_EQ(buffer[3], 0x11u);
    EXPECT_EQ(decode_u32le(buffer), 0x11223344u);

    for (const std::uint32_t value : {0u, 1u, 0xFFu, 0xFFFFFFFFu}) {
        encode_u32le(value, buffer);
        EXPECT_EQ(decode_u32le(buffer), value);
    }
}

TEST(WireBytes, EveryDeclaredTypeIsKnownAndNamed) {
    for (const MessageType type : kAllTypes) {
        EXPECT_TRUE(message_type_known(static_cast<std::uint8_t>(type)));
        EXPECT_STRNE(to_string(type), "");
    }
    EXPECT_FALSE(message_type_known(0));
    EXPECT_FALSE(message_type_known(10));
    EXPECT_FALSE(message_type_known(255));
}

// --------------------------------------------------- versioned messages

TEST(WireMessage, HeaderLayoutMatchesSpec) {
    const std::string bytes = encode_message(MessageType::Ping, "abc");
    ASSERT_EQ(bytes.size(), kMessageHeaderSize + 3);
    EXPECT_EQ(bytes.substr(0, 4), "STCW");
    EXPECT_EQ(static_cast<std::uint8_t>(bytes[4]), kProtocolVersion);
    EXPECT_EQ(static_cast<std::uint8_t>(bytes[5]),
              static_cast<std::uint8_t>(MessageType::Ping));
    const unsigned char* length =
        reinterpret_cast<const unsigned char*>(bytes.data()) + 6;
    EXPECT_EQ(decode_u32le(length), 3u);
    EXPECT_EQ(bytes.substr(kMessageHeaderSize), "abc");
}

TEST(WireMessage, RoundTripEveryTypeThroughDecoder) {
    for (const MessageType type : kAllTypes) {
        const std::string payload =
            std::string("payload-for-") + to_string(type);
        Decoder decoder;
        decoder.feed(encode_message(type, payload));
        Message message;
        ASSERT_EQ(decoder.next(&message), Decoder::Status::Ok)
            << to_string(type);
        EXPECT_EQ(message.type, type);
        EXPECT_EQ(message.payload, payload);
        EXPECT_EQ(decoder.next(&message), Decoder::Status::NeedMore);
        EXPECT_EQ(decoder.pending_bytes(), 0u);
    }
}

TEST(WireMessage, EmptyPayloadRoundTrips) {
    Decoder decoder;
    decoder.feed(encode_message(MessageType::Shutdown, ""));
    Message message;
    ASSERT_EQ(decoder.next(&message), Decoder::Status::Ok);
    EXPECT_EQ(message.type, MessageType::Shutdown);
    EXPECT_TRUE(message.payload.empty());
}

TEST(WireMessage, TruncationAtEveryByteOffsetIsNeedMore) {
    const std::string full =
        encode_message(MessageType::Work, "{\"item\":1,\"mutant\":\"m\"}");
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        Decoder decoder;
        decoder.feed(full.data(), cut);
        Message message;
        EXPECT_EQ(decoder.next(&message), Decoder::Status::NeedMore)
            << "cut at " << cut;
        // The remainder completes the frame — a torn prefix loses
        // nothing once the rest arrives.
        decoder.feed(full.data() + cut, full.size() - cut);
        ASSERT_EQ(decoder.next(&message), Decoder::Status::Ok)
            << "cut at " << cut;
        EXPECT_EQ(message.payload, "{\"item\":1,\"mutant\":\"m\"}");
    }
}

TEST(WireMessage, TelemetryFrameTruncationAtEveryByteOffsetIsNeedMore) {
    // The minor-2 streaming frame gets the same torn-input guarantee as
    // Work: a worker SIGKILLed mid-telemetry-push must leave the
    // coordinator's decoder parked in NeedMore, not crashed or confused.
    const std::string payload =
        "{\"kind\":\"span\",\"name\":\"work-item\",\"cat\":\"serve\","
        "\"ts\":12,\"dur\":34,\"tid\":0,\"actor\":1,"
        "\"span\":\"00000000000000ab\",\"parent\":\"00000000000000cd\"}";
    const std::string full = encode_message(MessageType::Telemetry, payload);
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        Decoder decoder;
        decoder.feed(full.data(), cut);
        Message message;
        EXPECT_EQ(decoder.next(&message), Decoder::Status::NeedMore)
            << "cut at " << cut;
        decoder.feed(full.data() + cut, full.size() - cut);
        ASSERT_EQ(decoder.next(&message), Decoder::Status::Ok)
            << "cut at " << cut;
        EXPECT_EQ(message.type, MessageType::Telemetry);
        EXPECT_EQ(message.payload, payload);
    }
}

TEST(WireMessage, ByteAtATimeFeedDecodesAStreamOfMessages) {
    std::string stream;
    for (const MessageType type : kAllTypes) {
        stream += encode_message(type, to_string(type));
    }
    Decoder decoder;
    std::vector<Message> seen;
    for (const char byte : stream) {
        decoder.feed(&byte, 1);
        Message message;
        while (decoder.next(&message) == Decoder::Status::Ok) {
            seen.push_back(message);
        }
    }
    ASSERT_EQ(seen.size(), std::size(kAllTypes));
    for (std::size_t i = 0; i < seen.size(); ++i) {
        EXPECT_EQ(seen[i].type, kAllTypes[i]);
        EXPECT_EQ(seen[i].payload, to_string(kAllTypes[i]));
    }
}

TEST(WireMessage, BadMagicIsRejectedAndPoisons) {
    std::string bytes = encode_message(MessageType::Ping, "x");
    bytes[0] = 'X';
    Decoder decoder;
    decoder.feed(bytes);
    Message message;
    EXPECT_EQ(decoder.next(&message), Decoder::Status::BadMagic);
    // Poisoned: more (valid) bytes do not resurrect the stream —
    // framing has no resync point.
    decoder.feed(encode_message(MessageType::Ping, "y"));
    EXPECT_EQ(decoder.next(&message), Decoder::Status::BadMagic);
}

TEST(WireMessage, VersionMismatchReportsPeerVersion) {
    std::string bytes = encode_message(MessageType::Hello, "{}");
    bytes[4] = static_cast<char>(kProtocolVersion + 1);
    Decoder decoder;
    decoder.feed(bytes);
    Message message;
    EXPECT_EQ(decoder.next(&message), Decoder::Status::BadVersion);
    EXPECT_EQ(decoder.peer_version(), kProtocolVersion + 1);
    EXPECT_EQ(decoder.next(&message), Decoder::Status::BadVersion);
}

TEST(WireMessage, UnknownTypeByteIsBadType) {
    std::string bytes = encode_message(MessageType::Hello, "{}");
    bytes[5] = static_cast<char>(0xEE);
    Decoder decoder;
    decoder.feed(bytes);
    Message message;
    EXPECT_EQ(decoder.next(&message), Decoder::Status::BadType);
}

TEST(WireMessage, HostileLengthPrefixIsOversizedNotAnAllocation) {
    std::string bytes = encode_message(MessageType::Work, "");
    unsigned char length[4];
    encode_u32le(kMaxFramePayload + 1, length);
    for (int i = 0; i < 4; ++i) bytes[6 + i] = static_cast<char>(length[i]);
    Decoder decoder;
    decoder.feed(bytes);
    Message message;
    EXPECT_EQ(decoder.next(&message), Decoder::Status::Oversized);
}

TEST(WireMessage, StatusNamesExist) {
    for (const Decoder::Status status :
         {Decoder::Status::NeedMore, Decoder::Status::Ok,
          Decoder::Status::BadMagic, Decoder::Status::BadVersion,
          Decoder::Status::BadType, Decoder::Status::Oversized}) {
        EXPECT_STRNE(to_string(status), "");
    }
}

// ------------------------------------------------------------ raw frames

std::string raw_frame(const std::string& payload) {
    unsigned char length[4];
    encode_u32le(static_cast<std::uint32_t>(payload.size()), length);
    return std::string(reinterpret_cast<const char*>(length), 4) + payload;
}

TEST(WireRawFrame, FrameRoundTripsThroughAPipe) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    const std::string payload = "hello, \x01 hostile \n bytes";
    ASSERT_TRUE(write_raw_frame(fds[1], payload));
    ASSERT_TRUE(write_raw_frame(fds[1], ""));  // empty payload is a valid frame
    EXPECT_EQ(read_raw_frame(fds[0]), payload);
    EXPECT_EQ(read_raw_frame(fds[0]), "");
    ::close(fds[1]);
    EXPECT_FALSE(read_raw_frame(fds[0]).has_value());  // clean EOF
    ::close(fds[0]);
}

TEST(WireRawFrame, TornPrefixReadsAsNoFrame) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_EQ(::write(fds[1], "\x07\x00", 2), 2);  // half a length prefix
    ::close(fds[1]);
    EXPECT_FALSE(read_raw_frame(fds[0]).has_value());
    ::close(fds[0]);
}

TEST(WireRawFrame, FrameBufferReassemblesByteByByte) {
    const std::string bytes = raw_frame("first") + raw_frame("") +
                              raw_frame("second frame");
    RawFrameBuffer buffer;
    std::vector<std::string> frames;
    for (const char byte : bytes) {
        buffer.feed(&byte, 1);
        while (auto frame = buffer.take_frame()) frames.push_back(*frame);
        EXPECT_FALSE(buffer.oversized());
    }
    ASSERT_EQ(frames.size(), 3u);
    EXPECT_EQ(frames[0], "first");
    EXPECT_EQ(frames[1], "");
    EXPECT_EQ(frames[2], "second frame");
    EXPECT_EQ(buffer.pending_bytes(), 0u);
}

TEST(WireRawFrame, FrameBufferFlagsOversizedPrefixes) {
    RawFrameBuffer buffer;
    const char huge[4] = {'\xff', '\xff', '\xff', '\xff'};  // 4 GiB claim
    buffer.feed(huge, sizeof huge);
    EXPECT_TRUE(buffer.oversized());
    EXPECT_FALSE(buffer.take_frame().has_value());
}

TEST(WireRawFrame, IncrementalBufferReassemblesSplitFrames) {
    unsigned char length[4];
    encode_u32le(5, length);
    std::string bytes(reinterpret_cast<const char*>(length), 4);
    bytes += "hello";
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        RawFrameBuffer buffer;
        buffer.feed(bytes.data(), cut);
        EXPECT_FALSE(buffer.take_frame().has_value()) << "cut at " << cut;
        EXPECT_FALSE(buffer.oversized());
        buffer.feed(bytes.data() + cut, bytes.size() - cut);
        const auto frame = buffer.take_frame();
        ASSERT_TRUE(frame.has_value()) << "cut at " << cut;
        EXPECT_EQ(*frame, "hello");
        EXPECT_EQ(buffer.pending_bytes(), 0u);
    }
}

TEST(WireRawFrame, OversizedPrefixFlagsTheBufferUnusable) {
    unsigned char length[4];
    encode_u32le(kMaxFramePayload + 1, length);
    RawFrameBuffer buffer;
    buffer.feed(reinterpret_cast<const char*>(length), 4);
    EXPECT_FALSE(buffer.take_frame().has_value());
    EXPECT_TRUE(buffer.oversized());
}

}  // namespace
}  // namespace stc::wire
