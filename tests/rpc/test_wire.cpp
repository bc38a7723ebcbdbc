// Wire-protocol unit tests: frame layout, codec roundtrips, protocol
// violation handling, and the token bucket (with injected time, so the
// refill arithmetic is tested deterministically).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <vector>

#include "spnhbm/rpc/admission.hpp"
#include "spnhbm/rpc/wire.hpp"

namespace spnhbm::rpc {
namespace {

TEST(Wire, FrameLayoutIsMagicTypeLength) {
  RequestFrame request;
  request.request_id = 7;
  request.model = "m@1";
  request.samples = {1, 2, 3, 4};
  const auto wire = encode_frame(encode_request(request));
  ASSERT_GE(wire.size(), kFrameHeaderBytes);
  // The magic is the ASCII bytes "SPNR" on the wire (0x52'4E'50'53
  // little-endian), so a desynchronised stream is caught on sight.
  EXPECT_EQ(wire[0], 'S');
  EXPECT_EQ(wire[1], 'P');
  EXPECT_EQ(wire[2], 'N');
  EXPECT_EQ(wire[3], 'R');
  EXPECT_EQ(wire[4], static_cast<std::uint8_t>(FrameType::kRequest));
  const std::uint32_t body_length =
      static_cast<std::uint32_t>(wire[5]) |
      (static_cast<std::uint32_t>(wire[6]) << 8) |
      (static_cast<std::uint32_t>(wire[7]) << 16) |
      (static_cast<std::uint32_t>(wire[8]) << 24);
  EXPECT_EQ(body_length, wire.size() - kFrameHeaderBytes);
}

TEST(Wire, HelloRoundtrip) {
  HelloFrame hello;
  hello.build_version = "0.5.0-test";
  hello.models = {{"nips5@1", 5}, {"nips80@2", 80}};
  const Frame frame = encode_hello(hello);
  EXPECT_EQ(frame.type, FrameType::kHello);
  const HelloFrame decoded = decode_hello(frame.body);
  EXPECT_EQ(decoded.protocol_version, kProtocolVersion);
  EXPECT_EQ(decoded.build_version, "0.5.0-test");
  ASSERT_EQ(decoded.models.size(), 2u);
  EXPECT_EQ(decoded.models[0].id, "nips5@1");
  EXPECT_EQ(decoded.models[0].input_features, 5u);
  EXPECT_EQ(decoded.models[1].id, "nips80@2");
  EXPECT_EQ(decoded.models[1].input_features, 80u);
}

TEST(Wire, RequestRoundtrip) {
  RequestFrame request;
  request.request_id = 0xDEADBEEFCAFEull;
  request.model = "mock@1";
  request.deadline_us = 250'000;
  request.samples = {0, 1, 2, 255, 254, 253};
  const Frame frame = encode_request(request);
  EXPECT_EQ(frame.type, FrameType::kRequest);
  const RequestFrame decoded = decode_request(frame.body);
  EXPECT_EQ(decoded.request_id, request.request_id);
  EXPECT_EQ(decoded.model, request.model);
  EXPECT_EQ(decoded.deadline_us, request.deadline_us);
  EXPECT_EQ(decoded.samples, request.samples);
}

TEST(Wire, RequestRoundtripsDeadlinesBeyondTheClock) {
  // Deadlines above what a steady_clock time point can hold still travel
  // bit-exact; RpcServer treats them as "no deadline".
  for (const std::uint64_t deadline :
       {std::uint64_t{1} << 63, std::numeric_limits<std::uint64_t>::max()}) {
    RequestFrame request;
    request.request_id = 7;
    request.model = "mock@1";
    request.deadline_us = deadline;
    request.samples = {0, 1, 2, 3};
    const RequestFrame decoded = decode_request(encode_request(request).body);
    EXPECT_EQ(decoded.deadline_us, deadline);
  }
}

TEST(Wire, ResponseRoundtripOk) {
  ResponseFrame response;
  response.request_id = 42;
  response.status = Status::kOk;
  response.results = {1.0, 0.25, 6.02214076e23, -0.0};
  const ResponseFrame decoded =
      decode_response(encode_response(response).body);
  EXPECT_EQ(decoded.request_id, 42u);
  EXPECT_EQ(decoded.status, Status::kOk);
  ASSERT_EQ(decoded.results.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    // Bit-exact: f64 results travel as raw IEEE bits.
    EXPECT_EQ(decoded.results[i], response.results[i]) << i;
  }
  EXPECT_TRUE(decoded.error.empty());
}

TEST(Wire, ResponseRoundtripError) {
  ResponseFrame response;
  response.request_id = 9;
  response.status = Status::kOverloaded;
  response.error = "shed by rate limit (retryable)";
  const ResponseFrame decoded =
      decode_response(encode_response(response).body);
  EXPECT_EQ(decoded.status, Status::kOverloaded);
  EXPECT_EQ(decoded.error, response.error);
  EXPECT_TRUE(decoded.results.empty());
}

TEST(Wire, ShutdownFrameHasEmptyBody) {
  const Frame frame = encode_shutdown();
  EXPECT_EQ(frame.type, FrameType::kShutdown);
  EXPECT_TRUE(frame.body.empty());
}

TEST(Wire, HeaderRejectsBadMagicTypeAndOversizedBody) {
  const auto wire = encode_frame(encode_shutdown());
  std::uint8_t header[kFrameHeaderBytes];
  FrameType type;

  std::copy(wire.begin(), wire.begin() + kFrameHeaderBytes, header);
  EXPECT_NO_THROW(decode_frame_header(header, type));

  auto corrupted = header[0];
  header[0] = 'X';
  EXPECT_THROW(decode_frame_header(header, type), WireError);
  header[0] = corrupted;

  header[4] = 99;  // unknown frame type
  EXPECT_THROW(decode_frame_header(header, type), WireError);
  header[4] = 7;  // one past kAdminReply
  EXPECT_THROW(decode_frame_header(header, type), WireError);
  header[4] = static_cast<std::uint8_t>(FrameType::kShutdown);

  // body_length past kMaxBodyBytes is a violation, not an allocation.
  const std::uint32_t huge = kMaxBodyBytes + 1;
  header[5] = static_cast<std::uint8_t>(huge);
  header[6] = static_cast<std::uint8_t>(huge >> 8);
  header[7] = static_cast<std::uint8_t>(huge >> 16);
  header[8] = static_cast<std::uint8_t>(huge >> 24);
  EXPECT_THROW(decode_frame_header(header, type), WireError);
}

TEST(Wire, DecodersRejectTruncatedAndTrailingBytes) {
  RequestFrame request;
  request.model = "m@1";
  request.samples = {1, 2, 3};
  Frame frame = encode_request(request);

  std::vector<std::uint8_t> truncated(frame.body.begin(),
                                      frame.body.end() - 1);
  EXPECT_THROW(decode_request(truncated), WireError);

  std::vector<std::uint8_t> trailing = frame.body;
  trailing.push_back(0);
  EXPECT_THROW(decode_request(trailing), WireError);

  // A result count far past the body is a truncation, not a huge
  // allocation.
  ResponseFrame response;
  response.results = {1.0};
  std::vector<std::uint8_t> lying = encode_response(response).body;
  for (std::size_t i = 9; i < 13; ++i) lying[i] = 0xFF;  // u32 count
  EXPECT_THROW(decode_response(lying), WireError);
}

TEST(Wire, TraceBlockRoundtripsWhenSet) {
  RequestFrame request;
  request.request_id = 11;
  request.model = "mock@1";
  request.samples = {9, 8, 7};
  request.trace.trace_id = 0xABCDEF0123456789ull;
  request.trace.parent_span = 0x42;
  const RequestFrame decoded = decode_request(encode_request(request).body);
  EXPECT_TRUE(decoded.trace.valid());
  EXPECT_EQ(decoded.trace.trace_id, request.trace.trace_id);
  EXPECT_EQ(decoded.trace.parent_span, request.trace.parent_span);
  EXPECT_EQ(decoded.samples, request.samples);
}

TEST(Wire, UntracedRequestOmitsTheTraceBlock) {
  // Without a context the trace flag is clear and the block is absent,
  // not zero-filled.
  RequestFrame traced, untraced;
  traced.model = untraced.model = "m@1";
  traced.samples = untraced.samples = {1, 2, 3};
  traced.trace.trace_id = 5;
  EXPECT_EQ(encode_request(untraced).body.size() + 16,
            encode_request(traced).body.size());
  const RequestFrame decoded = decode_request(encode_request(untraced).body);
  EXPECT_FALSE(decoded.trace.valid());
  EXPECT_EQ(decoded.trace.trace_id, 0u);
}

// Hand-built body prefix up to (not including) the flags byte.
std::vector<std::uint8_t> request_prefix(std::uint8_t query_kind,
                                         std::uint8_t encoding,
                                         std::uint32_t sample_count) {
  std::vector<std::uint8_t> body;
  const auto put = [&body](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      body.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  put(77, 8);                          // request id
  put(3, 2);                           // model string length
  body.insert(body.end(), {'m', '@', '1'});
  put(0, 8);                           // deadline
  body.push_back(query_kind);
  body.push_back(encoding);
  put(sample_count, 4);
  return body;
}

TEST(Wire, LegacyRequestLayoutsAreRejected) {
  // The pre-flags layout (id, model, deadline, payload and nothing else)
  // no longer parses: its deadline is followed by a payload length, not
  // by the query fields and flags.
  std::vector<std::uint8_t> legacy = request_prefix(0, 0, 0);
  legacy.resize(legacy.size() - 6);  // drop kind, encoding, count
  legacy.insert(legacy.end(), {2, 0, 0, 0, 0xAA, 0xBB});
  EXPECT_THROW(decode_request(legacy), WireError);

  // Frame type 7 (the retired second request frame) is an unknown type.
  RequestFrame request;
  request.model = "m@1";
  request.samples = {1};
  auto wire = encode_frame(encode_request(request));
  wire[4] = 7;
  std::uint8_t header[kFrameHeaderBytes];
  std::copy(wire.begin(), wire.begin() + kFrameHeaderBytes, header);
  FrameType type;
  EXPECT_THROW(decode_frame_header(header, type), WireError);
}

TEST(Wire, TracedRequestRejectsTruncatedAndTrailingBytes) {
  RequestFrame request;
  request.model = "m@1";
  request.samples = {1, 2, 3};
  request.trace.trace_id = 99;
  const Frame frame = encode_request(request);

  // A partial trace block is a violation.
  std::vector<std::uint8_t> truncated(frame.body.begin(),
                                      frame.body.end() - 1);
  EXPECT_THROW(decode_request(truncated), WireError);

  std::vector<std::uint8_t> trailing = frame.body;
  trailing.push_back(0);
  EXPECT_THROW(decode_request(trailing), WireError);
}

TEST(Wire, IdempotencyKeyRoundtripsAlone) {
  RequestFrame request;
  request.model = "m@1";
  request.samples = {1, 2, 3};
  request.idempotency_key = 0x1122334455667788ull;
  const Frame frame = encode_request(request);
  const RequestFrame decoded = decode_request(frame.body);
  EXPECT_EQ(decoded.idempotency_key, request.idempotency_key);
  EXPECT_FALSE(decoded.trace.valid());
}

TEST(Wire, IdempotencyKeyRoundtripsWithTraceBlock) {
  // Both flags: trace block then key; both must survive.
  RequestFrame request;
  request.model = "m@1";
  request.samples = {1, 2, 3};
  request.trace.trace_id = 0xABCull;
  request.trace.parent_span = 7;
  request.idempotency_key = 0x99AABBCCDDEEFF00ull;
  const RequestFrame decoded = decode_request(encode_request(request).body);
  EXPECT_EQ(decoded.idempotency_key, request.idempotency_key);
  EXPECT_TRUE(decoded.trace.valid());
  EXPECT_EQ(decoded.trace.trace_id, request.trace.trace_id);
  EXPECT_EQ(decoded.trace.parent_span, request.trace.parent_span);
}

TEST(Wire, KeylessRequestOmitsTheKeyBlock) {
  // Key 0 means "no key": the key flag is clear and the block absent.
  RequestFrame keyed, keyless;
  keyed.model = keyless.model = "m@1";
  keyed.samples = keyless.samples = {1, 2, 3};
  keyed.idempotency_key = 123;
  EXPECT_EQ(encode_request(keyless).body.size() + 8,
            encode_request(keyed).body.size());
  const RequestFrame decoded = decode_request(encode_request(keyless).body);
  EXPECT_EQ(decoded.idempotency_key, 0u);
}

TEST(Wire, KeyedRequestRejectsTruncatedAndTrailingBytes) {
  RequestFrame request;
  request.model = "m@1";
  request.samples = {1, 2, 3};
  request.idempotency_key = 42;
  const Frame frame = encode_request(request);

  // A partial key is a violation.
  std::vector<std::uint8_t> truncated(frame.body.begin(),
                                      frame.body.end() - 1);
  EXPECT_THROW(decode_request(truncated), WireError);

  std::vector<std::uint8_t> trailing = frame.body;
  trailing.push_back(0);
  EXPECT_THROW(decode_request(trailing), WireError);
}

TEST(Wire, RequestRoundtripsEveryShapeAndFlagCombination) {
  struct Shape {
    std::uint8_t query_kind;
    std::uint8_t encoding;
    std::uint32_t sample_count;
    std::vector<std::uint8_t> samples;
  };
  const std::vector<Shape> shapes = {
      {0, kEncodingDense, 0, {1, 2, 3, 4}},                // dense joint
      {1, kEncodingDense, 2, {1, 0xFF, 3, 4}},             // dense marginal
      {1, kEncodingSparse, 2, {1, 0, 3, 0, 9, 0, 0}},      // sparse marginal
  };
  const std::size_t flags_offset = 8 + 2 + 3 + 8 + 1 + 1 + 4;
  for (const Shape& shape : shapes) {
    for (std::uint8_t flags = 0; flags < 4; ++flags) {
      RequestFrame request;
      request.request_id = 1000u + flags;
      request.model = "m@1";
      request.deadline_us = 123;
      request.query_kind = shape.query_kind;
      request.encoding = shape.encoding;
      request.sample_count = shape.sample_count;
      request.samples = shape.samples;
      if (flags & kRequestTraced) {
        request.trace.trace_id = 0x5150ull;
        request.trace.parent_span = 0x77;
      }
      if (flags & kRequestKeyed) request.idempotency_key = 0xC0FFEEull;
      const Frame frame = encode_request(request);
      EXPECT_EQ(frame.type, FrameType::kRequest);
      ASSERT_GT(frame.body.size(), flags_offset);
      EXPECT_EQ(frame.body[flags_offset], flags);
      EXPECT_EQ(frame.body.size(),
                flags_offset + 1 + 4 + shape.samples.size() +
                    ((flags & kRequestTraced) ? 16 : 0) +
                    ((flags & kRequestKeyed) ? 8 : 0));
      const RequestFrame decoded = decode_request(frame.body);
      EXPECT_EQ(decoded.request_id, request.request_id);
      EXPECT_EQ(decoded.model, request.model);
      EXPECT_EQ(decoded.deadline_us, request.deadline_us);
      EXPECT_EQ(decoded.query_kind, request.query_kind);
      EXPECT_EQ(decoded.encoding, request.encoding);
      EXPECT_EQ(decoded.sample_count, request.sample_count);
      EXPECT_EQ(decoded.samples, request.samples);
      EXPECT_EQ(decoded.trace.trace_id, request.trace.trace_id);
      EXPECT_EQ(decoded.trace.parent_span, request.trace.parent_span);
      EXPECT_EQ(decoded.idempotency_key, request.idempotency_key);
    }
  }
}

TEST(Wire, RequestDecoderRejectsUnknownFlagBits) {
  for (const std::uint8_t flags : {4, 8, 0x80, 0xFF}) {
    std::vector<std::uint8_t> body = request_prefix(0, kEncodingDense, 0);
    body.push_back(flags);
    body.insert(body.end(), {1, 0, 0, 0, 0xAA});  // 1-byte payload
    body.resize(body.size() + 24);  // room for any known tail
    EXPECT_THROW(decode_request(body), WireError) << int(flags);
  }
}

TEST(Wire, Request2RoundtripDense) {
  // Query fields of a dense marginal request travel in the one REQUEST
  // frame.
  RequestFrame request;
  request.request_id = 0xFEEDFACEull;
  request.model = "m@1";
  request.deadline_us = 50'000;
  request.query_kind = 1;  // marginal
  request.encoding = kEncodingDense;
  request.sample_count = 2;
  request.samples = {1, 2, 3, 4, 5, 6};
  const Frame frame = encode_request(request);
  EXPECT_EQ(frame.type, FrameType::kRequest);
  const RequestFrame decoded = decode_request(frame.body);
  EXPECT_EQ(decoded.request_id, request.request_id);
  EXPECT_EQ(decoded.model, request.model);
  EXPECT_EQ(decoded.deadline_us, request.deadline_us);
  EXPECT_EQ(decoded.query_kind, 1);
  EXPECT_EQ(decoded.encoding, kEncodingDense);
  EXPECT_EQ(decoded.sample_count, 2u);
  EXPECT_EQ(decoded.samples, request.samples);
  EXPECT_FALSE(decoded.trace.valid());
  EXPECT_EQ(decoded.idempotency_key, 0u);
}

TEST(Wire, Request2RoundtripSparseWithTraceAndKey) {
  // A sparse MPE request with both optional blocks.
  RequestFrame request;
  request.request_id = 21;
  request.model = "m@1";
  request.query_kind = 2;  // MPE
  request.encoding = kEncodingSparse;
  request.sample_count = 3;
  // Opaque to the wire layer: any CSR stream bytes pass through.
  request.samples = {1, 0, 3, 0, 9, 0, 0, 2, 0, 1, 0, 4, 0, 7};
  request.trace.trace_id = 0x77ull;
  request.trace.parent_span = 5;
  request.idempotency_key = 0xA5A5A5A5ull;
  const RequestFrame decoded = decode_request(encode_request(request).body);
  EXPECT_EQ(decoded.query_kind, 2);
  EXPECT_EQ(decoded.encoding, kEncodingSparse);
  EXPECT_EQ(decoded.sample_count, 3u);
  EXPECT_EQ(decoded.samples, request.samples);
  EXPECT_TRUE(decoded.trace.valid());
  EXPECT_EQ(decoded.trace.trace_id, request.trace.trace_id);
  EXPECT_EQ(decoded.trace.parent_span, request.trace.parent_span);
  EXPECT_EQ(decoded.idempotency_key, request.idempotency_key);
}

TEST(Wire, Request2EncoderRejectsBadFields) {
  RequestFrame request;
  request.model = "m@1";
  request.samples = {1, 2, 3};
  request.sample_count = 1;

  RequestFrame bad_kind = request;
  bad_kind.query_kind = 3;
  EXPECT_THROW(encode_request(bad_kind), WireError);

  RequestFrame bad_encoding = request;
  bad_encoding.encoding = 2;
  EXPECT_THROW(encode_request(bad_encoding), WireError);

  // A dense count of 0 is "derive it"; a sparse one is a violation.
  RequestFrame zero_dense = request;
  zero_dense.sample_count = 0;
  EXPECT_NO_THROW(encode_request(zero_dense));
  RequestFrame zero_sparse = zero_dense;
  zero_sparse.encoding = kEncodingSparse;
  EXPECT_THROW(encode_request(zero_sparse), WireError);
}

TEST(Wire, Request2RejectsTruncatedAndTrailingBytes) {
  RequestFrame request;
  request.model = "m@1";
  request.query_kind = 1;
  request.encoding = kEncodingSparse;
  request.sample_count = 1;
  request.samples = {1, 0, 2, 0, 9};
  const Frame frame = encode_request(request);

  std::vector<std::uint8_t> truncated(frame.body.begin(),
                                      frame.body.end() - 1);
  EXPECT_THROW(decode_request(truncated), WireError);

  std::vector<std::uint8_t> trailing = frame.body;
  trailing.push_back(0);
  EXPECT_THROW(decode_request(trailing), WireError);
}

TEST(Wire, Request2DecoderRejectsCorruptQueryAndEncodingBytes) {
  // Corrupt the encoded bytes in place: the query-kind and encoding bytes
  // sit right after the u64 deadline, which follows the u16-length model
  // string and the u64 request id; the u32 sample count follows them.
  RequestFrame request;
  request.model = "m@1";
  request.query_kind = 1;
  request.encoding = kEncodingSparse;
  request.sample_count = 1;
  request.samples = {1, 0, 2, 0, 9};
  const Frame frame = encode_request(request);
  const std::size_t query_offset = 8 + 2 + 3 + 8;  // id, len, "m@1", deadline

  std::vector<std::uint8_t> bad_kind = frame.body;
  ASSERT_EQ(bad_kind[query_offset], 1);
  bad_kind[query_offset] = 9;
  EXPECT_THROW(decode_request(bad_kind), WireError);

  std::vector<std::uint8_t> bad_encoding = frame.body;
  ASSERT_EQ(bad_encoding[query_offset + 1], kEncodingSparse);
  bad_encoding[query_offset + 1] = 7;
  EXPECT_THROW(decode_request(bad_encoding), WireError);

  std::vector<std::uint8_t> zero_sparse_count = frame.body;
  ASSERT_EQ(zero_sparse_count[query_offset + 2], 1);
  zero_sparse_count[query_offset + 2] = 0;
  EXPECT_THROW(decode_request(zero_sparse_count), WireError);
}

TEST(Wire, AdminFrameHasEmptyBody) {
  const Frame frame = encode_admin();
  EXPECT_EQ(frame.type, FrameType::kAdmin);
  EXPECT_TRUE(frame.body.empty());
}

TEST(Wire, AdminReplyRoundtrip) {
  AdminReplyFrame reply;
  reply.build_version = "0.5.0-test";
  reply.metrics_text =
      "# TYPE spnhbm_rpc_completed counter\nspnhbm_rpc_completed 42\n";
  reply.health_text = "engine 0 model=m@1 health=healthy\n";
  reply.replicas_text = "m@1 -> member 0 partition p0 engine 0\n";
  reply.tail_text = "tail: 1/64 retained of 9 offered\n";
  const Frame frame = encode_admin_reply(reply);
  EXPECT_EQ(frame.type, FrameType::kAdminReply);
  const AdminReplyFrame decoded = decode_admin_reply(frame.body);
  EXPECT_EQ(decoded.protocol_version, kProtocolVersion);
  EXPECT_EQ(decoded.build_version, reply.build_version);
  EXPECT_EQ(decoded.metrics_text, reply.metrics_text);
  EXPECT_EQ(decoded.health_text, reply.health_text);
  EXPECT_EQ(decoded.replicas_text, reply.replicas_text);
  EXPECT_EQ(decoded.tail_text, reply.tail_text);
}

TEST(Wire, RetryableStatuses) {
  EXPECT_TRUE(is_retryable(Status::kOverloaded));
  EXPECT_TRUE(is_retryable(Status::kNoHealthyEngine));
  EXPECT_TRUE(is_retryable(Status::kShuttingDown));
  EXPECT_FALSE(is_retryable(Status::kOk));
  EXPECT_FALSE(is_retryable(Status::kInvalidRequest));
  EXPECT_FALSE(is_retryable(Status::kUnknownModel));
  EXPECT_FALSE(is_retryable(Status::kDeadlineExceeded));
  EXPECT_FALSE(is_retryable(Status::kInternalError));
}

TEST(TokenBucket, DisabledRateAlwaysAdmits) {
  TokenBucket bucket(0.0, 0.0);
  const auto now = TokenBucket::Clock::now();
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(bucket.try_acquire(now));
}

TEST(TokenBucket, BurstBoundsInstantaneousAdmissions) {
  TokenBucket bucket(10.0, 3.0);  // 10 rps, burst of 3, starts full
  const auto now = TokenBucket::Clock::now();
  EXPECT_TRUE(bucket.try_acquire(now));
  EXPECT_TRUE(bucket.try_acquire(now));
  EXPECT_TRUE(bucket.try_acquire(now));
  EXPECT_FALSE(bucket.try_acquire(now));  // bucket drained, no time passed
}

TEST(TokenBucket, RefillsAtTheConfiguredRate) {
  TokenBucket bucket(10.0, 1.0);
  const auto start = TokenBucket::Clock::now();
  EXPECT_TRUE(bucket.try_acquire(start));
  EXPECT_FALSE(bucket.try_acquire(start));
  // 10 rps = one token per 100 ms. 50 ms in: still dry.
  EXPECT_FALSE(bucket.try_acquire(start + std::chrono::milliseconds(50)));
  EXPECT_TRUE(bucket.try_acquire(start + std::chrono::milliseconds(101)));
  // The refill is capped at the burst: a long idle stretch does not bank
  // more than one token.
  const auto later = start + std::chrono::seconds(10);
  EXPECT_TRUE(bucket.try_acquire(later));
  EXPECT_FALSE(bucket.try_acquire(later));
}

}  // namespace
}  // namespace spnhbm::rpc
