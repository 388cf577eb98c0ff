/**
 * @file
 * Tests for the serving subsystem (DESIGN.md §10): wire-protocol
 * framing under torn reads, the batcher's time/size windows,
 * admission-control shedding, and — the acceptance bar — that a
 * response served through the daemon is byte-identical to a direct
 * mapBatch() call over the same reads. The ctest harness re-runs the
 * ServeServer digest tests under PGB_THREADS=1 and PGB_THREADS=8
 * (serve_threads_1/serve_threads_8), so batching through the daemon
 * inherits the scheduler's thread-count-invariance guarantee.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/fault.hpp"
#include "core/logging.hpp"
#include "core/md5.hpp"
#include "index/gbwt.hpp"
#include "index/minimizer.hpp"
#include "obs/metrics.hpp"
#include "store/store.hpp"
#include "core/thread_pool.hpp"
#include "core/timer.hpp"
#include "pipeline/context.hpp"
#include "pipeline/mapper.hpp"
#include "seq/read_sim.hpp"
#include "serve/admission.hpp"
#include "serve/batcher.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "synth/pangenome_sim.hpp"
#include "temp_path.hpp"

namespace {

using namespace pgb;

// ---- protocol framing --------------------------------------------------

TEST(ServeProtocol, RequestRoundTrip)
{
    serve::Request request;
    request.id = 0x1122334455667788ull;
    request.fastq = "@r1\nACGT\n+\nIIII\n";
    const std::string frame = serve::encodeRequest(request);

    serve::FrameDecoder decoder;
    decoder.feed(frame.data(), frame.size());
    std::string payload;
    ASSERT_TRUE(decoder.next(payload));
    serve::Request decoded;
    std::string error;
    ASSERT_TRUE(serve::decodeRequest(payload, decoded, error)) << error;
    EXPECT_EQ(decoded.id, request.id);
    EXPECT_EQ(decoded.fastq, request.fastq);
    EXPECT_FALSE(decoder.next(payload));
    EXPECT_FALSE(decoder.error());
}

TEST(ServeProtocol, ResponseRoundTrip)
{
    serve::Response response;
    response.id = 42;
    response.status = serve::Status::kOverloaded;
    response.body = "request queue full";
    const std::string frame = serve::encodeResponse(response);

    serve::FrameDecoder decoder;
    decoder.feed(frame.data(), frame.size());
    std::string payload;
    ASSERT_TRUE(decoder.next(payload));
    serve::Response decoded;
    std::string error;
    ASSERT_TRUE(serve::decodeResponse(payload, decoded, error)) << error;
    EXPECT_EQ(decoded.id, 42u);
    EXPECT_EQ(decoded.status, serve::Status::kOverloaded);
    EXPECT_EQ(decoded.body, "request queue full");
}

TEST(ServeProtocol, TornReadsReassemble)
{
    // A stream socket may deliver frames in arbitrary fragments; the
    // decoder must reassemble them byte by byte, across frame
    // boundaries, without losing or duplicating messages.
    std::string stream;
    for (uint64_t i = 0; i < 5; ++i) {
        serve::Request request;
        request.id = i;
        request.fastq = "@r" + std::to_string(i) + "\nAC\n+\nII\n";
        stream += serve::encodeRequest(request);
    }

    serve::FrameDecoder decoder;
    std::string payload;
    std::vector<uint64_t> ids;
    for (size_t i = 0; i < stream.size(); ++i) {
        decoder.feed(stream.data() + i, 1);
        while (decoder.next(payload)) {
            serve::Request decoded;
            std::string error;
            ASSERT_TRUE(serve::decodeRequest(payload, decoded, error));
            ids.push_back(decoded.id);
        }
    }
    EXPECT_FALSE(decoder.error());
    EXPECT_EQ(ids, (std::vector<uint64_t>{0, 1, 2, 3, 4}));
    EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(ServeProtocol, OversizedFrameFailsClosed)
{
    // 0xFFFFFFFF declared bytes is far past kMaxFrameBytes: the
    // decoder must fail permanently instead of trying to buffer 4 GiB.
    const char bad[] = {'\xff', '\xff', '\xff', '\xff', 'x'};
    serve::FrameDecoder decoder;
    decoder.feed(bad, sizeof(bad));
    std::string payload;
    EXPECT_FALSE(decoder.next(payload));
    EXPECT_TRUE(decoder.error());
    EXPECT_FALSE(decoder.errorMessage().empty());
    // Once broken, always broken: later valid bytes must not revive it.
    const std::string frame = serve::encodeRequest(serve::Request{});
    decoder.feed(frame.data(), frame.size());
    EXPECT_FALSE(decoder.next(payload));
    EXPECT_TRUE(decoder.error());
}

TEST(ServeProtocol, RuntFrameFailsClosed)
{
    // A frame shorter than the request header cannot be a message.
    const char runt[] = {2, 0, 0, 0, 'a', 'b'};
    serve::FrameDecoder decoder;
    decoder.feed(runt, sizeof(runt));
    std::string payload;
    EXPECT_FALSE(decoder.next(payload));
    EXPECT_TRUE(decoder.error());
}

TEST(ServeProtocol, DecodeRejectsWrongType)
{
    serve::Request request;
    request.fastq = "@r\nA\n+\nI\n";
    const std::string frame = serve::encodeRequest(request);
    // Strip the length prefix to get the payload, then misuse it as a
    // response payload: the type byte must be rejected.
    const std::string payload = frame.substr(4);
    serve::Response response;
    std::string error;
    EXPECT_FALSE(serve::decodeResponse(payload, response, error));
    EXPECT_FALSE(error.empty());
}

TEST(ServeProtocol, RequestDeadlineRoundTrips)
{
    serve::Request request;
    request.id = 7;
    request.fastq = "@r\nACGT\n+\nIIII\n";
    request.hasDeadline = true;
    request.deadlineUs = 2500;
    const std::string frame = serve::encodeRequest(request);

    serve::FrameDecoder decoder;
    decoder.feed(frame.data(), frame.size());
    std::string payload;
    ASSERT_TRUE(decoder.next(payload));
    serve::Request decoded;
    std::string error;
    ASSERT_TRUE(serve::decodeRequest(payload, decoded, error)) << error;
    EXPECT_TRUE(decoded.hasDeadline);
    EXPECT_EQ(decoded.deadlineUs, 2500u);
    EXPECT_EQ(decoded.fastq, request.fastq);
}

TEST(ServeProtocol, AbsentDeadlineIsDistinctFromZeroBudget)
{
    // hasDeadline=false must survive the wire even though the budget
    // field is still transmitted: "no deadline" and "a deadline of
    // zero" are different requests (the latter sheds at admission).
    serve::Request none;
    none.fastq = "@r\nA\n+\nI\n";
    serve::Request zero = none;
    zero.hasDeadline = true;
    zero.deadlineUs = 0;

    for (const auto *request : {&none, &zero}) {
        const std::string frame = serve::encodeRequest(*request);
        serve::FrameDecoder decoder;
        decoder.feed(frame.data(), frame.size());
        std::string payload;
        ASSERT_TRUE(decoder.next(payload));
        serve::Request decoded;
        std::string error;
        ASSERT_TRUE(serve::decodeRequest(payload, decoded, error));
        EXPECT_EQ(decoded.hasDeadline, request->hasDeadline);
        EXPECT_EQ(decoded.deadlineUs, 0u);
    }
}

TEST(ServeProtocol, ControlFrameRoundTrips)
{
    for (const auto type : {serve::MsgType::kPing,
                            serve::MsgType::kStatus,
                            serve::MsgType::kReload}) {
        const std::string frame = serve::encodeControl(type, 31);
        serve::FrameDecoder decoder;
        decoder.feed(frame.data(), frame.size());
        std::string payload;
        ASSERT_TRUE(decoder.next(payload));
        serve::Request decoded;
        std::string error;
        ASSERT_TRUE(serve::decodeRequest(payload, decoded, error))
            << error;
        EXPECT_EQ(decoded.type, type);
        EXPECT_EQ(decoded.id, 31u);
        EXPECT_TRUE(decoded.fastq.empty());
    }
}

TEST(ServeProtocol, DeadlineExceededStatusRoundTrips)
{
    serve::Response response;
    response.id = 9;
    response.status = serve::Status::kDeadlineExceeded;
    response.body = "deadline expired while queued";
    const std::string frame = serve::encodeResponse(response);
    serve::FrameDecoder decoder;
    decoder.feed(frame.data(), frame.size());
    std::string payload;
    ASSERT_TRUE(decoder.next(payload));
    serve::Response decoded;
    std::string error;
    ASSERT_TRUE(serve::decodeResponse(payload, decoded, error)) << error;
    EXPECT_EQ(decoded.status, serve::Status::kDeadlineExceeded);
    EXPECT_STREQ(serve::statusName(decoded.status),
                 "DEADLINE_EXCEEDED");
}

// ---- admission control -------------------------------------------------

serve::Pending
pendingWithReads(uint64_t id, size_t reads)
{
    serve::Pending pending;
    pending.id = id;
    for (size_t i = 0; i < reads; ++i) {
        // += instead of operator+ chains: GCC 12's -Wrestrict trips a
        // false positive (PR105329) on char* + to_string temporaries.
        std::string name = "r";
        name += std::to_string(i);
        pending.reads.emplace_back(name, "ACGT");
    }
    pending.enqueueNanos = core::monotonicNanos();
    return pending;
}

TEST(ServeAdmission, ShedsAtDepthBound)
{
    serve::AdmissionQueue queue(2);
    EXPECT_EQ(queue.push(pendingWithReads(0, 1)),
              serve::AdmissionQueue::Push::kAccepted);
    EXPECT_EQ(queue.push(pendingWithReads(1, 1)),
              serve::AdmissionQueue::Push::kAccepted);
    EXPECT_EQ(queue.push(pendingWithReads(2, 1)),
              serve::AdmissionQueue::Push::kShed);
    EXPECT_EQ(queue.depth(), 2u);

    // Draining frees capacity: admission resumes.
    const auto drained = queue.drain(100);
    EXPECT_EQ(drained.size(), 2u);
    EXPECT_EQ(queue.push(pendingWithReads(3, 1)),
              serve::AdmissionQueue::Push::kAccepted);

    queue.close();
    EXPECT_EQ(queue.push(pendingWithReads(4, 1)),
              serve::AdmissionQueue::Push::kClosed);
}

TEST(ServeAdmission, DrainRespectsRequestBoundaries)
{
    serve::AdmissionQueue queue(16);
    queue.push(pendingWithReads(0, 3));
    queue.push(pendingWithReads(1, 3));
    queue.push(pendingWithReads(2, 3));

    // 3 + 3 fits in 7; adding the third request would exceed it.
    auto first = queue.drain(7);
    ASSERT_EQ(first.size(), 2u);
    EXPECT_EQ(first[0].id, 0u);
    EXPECT_EQ(first[1].id, 1u);

    // An oversized lone request still comes out (progress guarantee).
    auto second = queue.drain(1);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].id, 2u);
    EXPECT_EQ(queue.weight(), 0u);
}

// ---- batching windows --------------------------------------------------

TEST(ServeBatcher, SizeWindowFlushesWithoutWaiting)
{
    serve::AdmissionQueue queue(64);
    // Wait bound far beyond the test timeout: if the size trigger
    // does not fire, the test hangs and fails loudly.
    serve::Batcher batcher(queue, 4, 60u * 1000 * 1000);
    queue.push(pendingWithReads(0, 2));
    queue.push(pendingWithReads(1, 2));

    std::vector<serve::Pending> batch;
    core::WallTimer timer;
    ASSERT_TRUE(batcher.nextBatch(batch));
    EXPECT_LT(timer.seconds(), 10.0);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch[0].id, 0u);
    EXPECT_EQ(batch[1].id, 1u);
}

TEST(ServeBatcher, TimeWindowFlushesPartialBatch)
{
    serve::AdmissionQueue queue(64);
    serve::Batcher batcher(queue, 1000, 20000); // 20 ms window
    queue.push(pendingWithReads(7, 1));

    std::vector<serve::Pending> batch;
    core::WallTimer timer;
    ASSERT_TRUE(batcher.nextBatch(batch));
    const double waited = timer.seconds();
    ASSERT_EQ(batch.size(), 1u);
    EXPECT_EQ(batch[0].id, 7u);
    // The lone request must not be held hostage for the size window;
    // generous upper bound to stay robust on loaded CI machines.
    EXPECT_LT(waited, 10.0);
}

TEST(ServeBatcher, CloseDrainsThenEnds)
{
    serve::AdmissionQueue queue(64);
    serve::Batcher batcher(queue, 2, 1000);
    queue.push(pendingWithReads(0, 1));
    queue.push(pendingWithReads(1, 1));
    queue.push(pendingWithReads(2, 1));
    queue.close();

    std::vector<serve::Pending> batch;
    size_t seen = 0;
    while (batcher.nextBatch(batch))
        seen += batch.size();
    EXPECT_EQ(seen, 3u);
    ASSERT_FALSE(batcher.nextBatch(batch));
}

// ---- end-to-end: served output vs direct mapBatch ----------------------

/** Small fixed-seed pangenome + reads + mapping context. */
struct ServeFixture
{
    synth::Pangenome pangenome;
    std::vector<seq::Sequence> reads;
    std::shared_ptr<const pipeline::MappingContext> context;

    ServeFixture()
    {
        synth::PangenomeConfig config =
            synth::mGraphLikeConfig(12000, 7);
        config.haplotypeCount = 4;
        pangenome = synth::simulatePangenome(config);
        seq::ReadSimulator sim(seq::ReadProfile::shortRead(), 0x5eed);
        for (size_t r = 0; r < 30; ++r) {
            auto read = sim.sample(
                pangenome.haplotypes[r % pangenome.haplotypes.size()]);
            read.read.setName("sr_" + std::to_string(r));
            reads.push_back(std::move(read.read));
        }
        context = pipeline::MappingContext::Builder()
                      .fromGraph(pangenome.graph)
                      .buildGbwt(true)
                      .build();
    }
};

const ServeFixture &
serveFixture()
{
    static ServeFixture instance;
    return instance;
}

std::string
socketPathFor(const char *name)
{
    // sun_path caps at ~107 bytes and gtest temp dirs can be long;
    // /tmp + pid keeps it short and per-process unique.
    return std::string("/tmp/pgb_test_") + name + "_" +
           std::to_string(::getpid()) + ".sock";
}

/** Raw test client: connect, send frames, decode responses. */
struct TestClient
{
    int fd = -1;
    serve::FrameDecoder decoder;

    explicit TestClient(const std::string &path)
    {
        fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        sockaddr_un address{};
        address.sun_family = AF_UNIX;
        std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
        EXPECT_EQ(::connect(fd,
                            reinterpret_cast<const sockaddr *>(&address),
                            sizeof(address)),
                  0)
            << std::strerror(errno);
    }

    ~TestClient()
    {
        if (fd >= 0)
            ::close(fd);
    }

    void
    send(const std::string &bytes)
    {
        ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
                  static_cast<ssize_t>(bytes.size()));
    }

    serve::Response
    awaitResponse()
    {
        std::string payload;
        char buffer[4096];
        while (!decoder.next(payload)) {
            const ssize_t got = ::read(fd, buffer, sizeof(buffer));
            if (got <= 0) {
                ADD_FAILURE() << "connection died awaiting response";
                return {};
            }
            decoder.feed(buffer, static_cast<size_t>(got));
        }
        serve::Response response;
        std::string error;
        EXPECT_TRUE(serve::decodeResponse(payload, response, error))
            << error;
        return response;
    }
};

std::string
fastqText(const std::vector<seq::Sequence> &reads, size_t first,
          size_t count)
{
    std::string out;
    for (size_t i = first; i < first + count; ++i) {
        const std::string bases = reads[i].toString();
        out += '@' + reads[i].name() + '\n' + bases + "\n+\n" +
               std::string(bases.size(), 'I') + '\n';
    }
    return out;
}

TEST(ServeServer, ServedEqualsDirectMapBatch)
{
    const ServeFixture &fx = serveFixture();

    // Direct path: one mapBatch over all reads, formatted.
    pipeline::MapperConfig config = pipeline::MapperConfig::forTool(
        pipeline::ToolProfile::kVgMap);
    config.k = fx.context->k();
    config.w = fx.context->w();
    config.threads = core::hardwareThreads();
    std::vector<pipeline::ReadMapping> mappings;
    pipeline::mapBatch(*fx.context, config, fx.reads, mappings);
    const std::string direct =
        serve::formatMappings(fx.reads, mappings);

    // Served path: loadgen digest mode (one sequential pass), with a
    // batch window small enough that requests actually coalesce.
    const std::string socket_path = socketPathFor("digest");
    ::unlink(socket_path.c_str());
    serve::ServeConfig serve_config;
    serve_config.socketPath = socket_path;
    serve_config.maxBatchReads = 8;
    serve_config.maxWaitUs = 500;
    serve::Server server(fx.context, serve_config);
    std::thread daemon([&server] { server.run(); });
    ASSERT_TRUE(server.waitReady(10000));

    const std::string dump_path =
        test::testTempPath("pgb_served_dump.tsv");
    serve::LoadgenConfig loadgen;
    loadgen.socketPath = socket_path;
    loadgen.connections = 2;
    loadgen.readsPerRequest = 3;
    loadgen.dumpPath = dump_path;
    const serve::LoadgenReport report =
        serve::runLoadgen(loadgen, fx.reads);
    EXPECT_EQ(report.ok, (fx.reads.size() + 2) / 3);
    EXPECT_EQ(report.overloaded, 0u);
    EXPECT_EQ(report.errors, 0u);

    server.stop();
    daemon.join();

    std::ifstream dumped(dump_path, std::ios::binary);
    ASSERT_TRUE(dumped.good());
    std::stringstream served;
    served << dumped.rdbuf();

    // The acceptance bar: identical bytes, hence identical digests,
    // no matter how the daemon batched the requests.
    EXPECT_EQ(served.str(), direct);
    EXPECT_EQ(core::md5Hex(served.str()), core::md5Hex(direct));
    const serve::Server::Totals totals = server.totals();
    EXPECT_EQ(totals.reads, fx.reads.size());
    EXPECT_EQ(totals.badFrames, 0u);
}

TEST(ServeServer, OverloadedRequestsGetShedResponse)
{
    const ServeFixture &fx = serveFixture();
    const std::string socket_path = socketPathFor("shed");
    ::unlink(socket_path.c_str());

    // depth 1 + a long time window + a size window far above one
    // request: the first request parks in the queue for the full
    // window, so a second request deterministically finds it full.
    serve::ServeConfig serve_config;
    serve_config.socketPath = socket_path;
    serve_config.maxBatchReads = 1000;
    serve_config.maxWaitUs = 500 * 1000; // 500 ms
    serve_config.queueDepth = 1;
    serve::Server server(fx.context, serve_config);
    std::thread daemon([&server] { server.run(); });
    ASSERT_TRUE(server.waitReady(10000));
    {
        TestClient client(socket_path);
        serve::Request first;
        first.id = 1;
        first.fastq = fastqText(fx.reads, 0, 1);
        client.send(serve::encodeRequest(first));
        // Give the daemon time to admit #1 before #2 arrives.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        serve::Request second;
        second.id = 2;
        second.fastq = fastqText(fx.reads, 1, 1);
        client.send(serve::encodeRequest(second));

        // Responses: #2 is shed immediately, #1 maps after the window.
        const serve::Response shed = client.awaitResponse();
        EXPECT_EQ(shed.id, 2u);
        EXPECT_EQ(shed.status, serve::Status::kOverloaded);
        const serve::Response ok = client.awaitResponse();
        EXPECT_EQ(ok.id, 1u);
        EXPECT_EQ(ok.status, serve::Status::kOk);
    }
    server.stop();
    daemon.join();
    EXPECT_EQ(server.totals().shed, 1u);
}

TEST(ServeServer, MalformedFastqGetsErrorResponseOnly)
{
    const ServeFixture &fx = serveFixture();
    const std::string socket_path = socketPathFor("badfq");
    ::unlink(socket_path.c_str());
    serve::ServeConfig serve_config;
    serve_config.socketPath = socket_path;
    serve_config.maxWaitUs = 500;
    serve::Server server(fx.context, serve_config);
    std::thread daemon([&server] { server.run(); });
    ASSERT_TRUE(server.waitReady(10000));
    {
        TestClient client(socket_path);
        serve::Request bad;
        bad.id = 9;
        bad.fastq = "this is not fastq\n";
        client.send(serve::encodeRequest(bad));
        const serve::Response error = client.awaitResponse();
        EXPECT_EQ(error.id, 9u);
        EXPECT_EQ(error.status, serve::Status::kError);
        EXPECT_FALSE(error.body.empty());

        // The connection survives a request-level error: a valid
        // request on the same connection still maps.
        serve::Request good;
        good.id = 10;
        good.fastq = fastqText(fx.reads, 0, 2);
        client.send(serve::encodeRequest(good));
        const serve::Response ok = client.awaitResponse();
        EXPECT_EQ(ok.id, 10u);
        EXPECT_EQ(ok.status, serve::Status::kOk);
    }
    server.stop();
    daemon.join();
}

TEST(ServeServer, MalformedFrameDropsOnlyThatConnection)
{
    const ServeFixture &fx = serveFixture();
    const std::string socket_path = socketPathFor("badframe");
    ::unlink(socket_path.c_str());
    serve::ServeConfig serve_config;
    serve_config.socketPath = socket_path;
    serve_config.maxWaitUs = 500;
    serve::Server server(fx.context, serve_config);
    std::thread daemon([&server] { server.run(); });
    ASSERT_TRUE(server.waitReady(10000));
    {
        // Connection A sends garbage: an impossible frame length.
        TestClient bad(socket_path);
        bad.send(std::string("\xff\xff\xff\xffgarbage", 11));
        char buffer[64];
        // The daemon severs A: read eventually returns 0 (EOF).
        ssize_t got;
        do {
            got = ::read(bad.fd, buffer, sizeof(buffer));
        } while (got > 0 || (got < 0 && errno == EINTR));
        EXPECT_EQ(got, 0) << std::strerror(errno);

        // Connection B, after A's violation, works untouched.
        TestClient good(socket_path);
        serve::Request request;
        request.id = 77;
        request.fastq = fastqText(fx.reads, 0, 1);
        good.send(serve::encodeRequest(request));
        const serve::Response ok = good.awaitResponse();
        EXPECT_EQ(ok.id, 77u);
        EXPECT_EQ(ok.status, serve::Status::kOk);
    }
    server.stop();
    daemon.join();
    EXPECT_GE(server.totals().badFrames, 1u);
}

// ---- injected connection faults degrade per DESIGN.md §6 ---------------

/** Reads until EOF/error; returns the final read() result. */
ssize_t
drainToEof(int fd)
{
    char buffer[256];
    ssize_t got;
    do {
        got = ::read(fd, buffer, sizeof(buffer));
    } while (got > 0 || (got < 0 && errno == EINTR));
    return got;
}

TEST(ServeServer, InjectedReadFaultDropsOnlyThatConnection)
{
    const ServeFixture &fx = serveFixture();
    const std::string socket_path = socketPathFor("readfault");
    ::unlink(socket_path.c_str());
    serve::ServeConfig serve_config;
    serve_config.socketPath = socket_path;
    serve_config.maxWaitUs = 500;
    serve::Server server(fx.context, serve_config);
    std::thread daemon([&server] { server.run(); });
    ASSERT_TRUE(server.waitReady(10000));

    core::fault::disarmAll();
    core::fault::arm("serve.read", 1);
    {
        // The victim's first read() faults: its connection is severed
        // (EOF on our side), and nothing else is harmed.
        TestClient victim(socket_path);
        serve::Request request;
        request.id = 1;
        request.fastq = fastqText(fx.reads, 0, 1);
        victim.send(serve::encodeRequest(request));
        EXPECT_EQ(drainToEof(victim.fd), 0) << std::strerror(errno);

        TestClient survivor(socket_path);
        serve::Request retry;
        retry.id = 2;
        retry.fastq = fastqText(fx.reads, 0, 1);
        survivor.send(serve::encodeRequest(retry));
        const serve::Response ok = survivor.awaitResponse();
        EXPECT_EQ(ok.id, 2u);
        EXPECT_EQ(ok.status, serve::Status::kOk);
    }
    core::fault::disarmAll();
    server.stop();
    daemon.join();
}

TEST(ServeServer, InjectedWriteFaultDropsOnlyThatConnection)
{
    const ServeFixture &fx = serveFixture();
    const std::string socket_path = socketPathFor("writefault");
    ::unlink(socket_path.c_str());
    serve::ServeConfig serve_config;
    serve_config.socketPath = socket_path;
    serve_config.maxWaitUs = 500;
    serve::Server server(fx.context, serve_config);
    std::thread daemon([&server] { server.run(); });
    ASSERT_TRUE(server.waitReady(10000));

    core::fault::disarmAll();
    core::fault::arm("serve.write", 1);
    {
        // The victim's response write faults: it sees EOF instead of
        // a response. The one-shot fault is then spent, so a second
        // connection round-trips normally.
        TestClient victim(socket_path);
        serve::Request request;
        request.id = 1;
        request.fastq = fastqText(fx.reads, 0, 1);
        victim.send(serve::encodeRequest(request));
        EXPECT_EQ(drainToEof(victim.fd), 0) << std::strerror(errno);

        TestClient survivor(socket_path);
        serve::Request retry;
        retry.id = 2;
        retry.fastq = fastqText(fx.reads, 0, 1);
        survivor.send(serve::encodeRequest(retry));
        const serve::Response ok = survivor.awaitResponse();
        EXPECT_EQ(ok.id, 2u);
        EXPECT_EQ(ok.status, serve::Status::kOk);
    }
    core::fault::disarmAll();
    server.stop();
    daemon.join();
}

TEST(ServeServer, InjectedAcceptFaultDropsOnlyThatPendingConnection)
{
    const ServeFixture &fx = serveFixture();
    const std::string socket_path = socketPathFor("acceptfault");
    ::unlink(socket_path.c_str());
    serve::ServeConfig serve_config;
    serve_config.socketPath = socket_path;
    serve_config.maxWaitUs = 500;
    serve::Server server(fx.context, serve_config);
    std::thread daemon([&server] { server.run(); });
    ASSERT_TRUE(server.waitReady(10000));

    core::fault::disarmAll();
    core::fault::arm("serve.accept", 1);
    {
        // connect() succeeds against the listen backlog, but the
        // faulted accept closes the fd immediately: EOF, no service.
        TestClient victim(socket_path);
        EXPECT_EQ(drainToEof(victim.fd), 0) << std::strerror(errno);

        TestClient survivor(socket_path);
        serve::Request request;
        request.id = 3;
        request.fastq = fastqText(fx.reads, 0, 1);
        survivor.send(serve::encodeRequest(request));
        const serve::Response ok = survivor.awaitResponse();
        EXPECT_EQ(ok.id, 3u);
        EXPECT_EQ(ok.status, serve::Status::kOk);
    }
    core::fault::disarmAll();
    server.stop();
    daemon.join();
}

// ---- deadlines ---------------------------------------------------------

TEST(ServeServer, ZeroDeadlineShedsAtAdmission)
{
    const ServeFixture &fx = serveFixture();
    const std::string socket_path = socketPathFor("deadline0");
    ::unlink(socket_path.c_str());
    serve::ServeConfig serve_config;
    serve_config.socketPath = socket_path;
    serve_config.maxWaitUs = 500;
    serve::Server server(fx.context, serve_config);
    std::thread daemon([&server] { server.run(); });
    ASSERT_TRUE(server.waitReady(10000));
    {
        TestClient client(socket_path);
        serve::Request request;
        request.id = 1;
        request.fastq = fastqText(fx.reads, 0, 1);
        request.hasDeadline = true;
        request.deadlineUs = 0;
        client.send(serve::encodeRequest(request));
        const serve::Response shed = client.awaitResponse();
        EXPECT_EQ(shed.id, 1u);
        EXPECT_EQ(shed.status, serve::Status::kDeadlineExceeded);

        // The same request without the lapsed deadline still maps —
        // the shed was the deadline's doing, nothing else's.
        serve::Request live = request;
        live.id = 2;
        live.hasDeadline = false;
        client.send(serve::encodeRequest(live));
        const serve::Response ok = client.awaitResponse();
        EXPECT_EQ(ok.id, 2u);
        EXPECT_EQ(ok.status, serve::Status::kOk);
    }
    server.stop();
    daemon.join();
    EXPECT_EQ(server.totals().deadlineExceeded, 1u);
    EXPECT_EQ(server.totals().reads, 1u); // only the live request
}

TEST(ServeServer, DeadlineShorterThanBatchWindowExpiresInQueue)
{
    const ServeFixture &fx = serveFixture();
    const std::string socket_path = socketPathFor("deadlineq");
    ::unlink(socket_path.c_str());
    // The batch window (300 ms) dwarfs the deadline (20 ms): the
    // request is admitted alive but must be shed when the batcher
    // composes, without ever reaching mapBatch().
    serve::ServeConfig serve_config;
    serve_config.socketPath = socket_path;
    serve_config.maxBatchReads = 1000;
    serve_config.maxWaitUs = 300 * 1000;
    serve::Server server(fx.context, serve_config);
    std::thread daemon([&server] { server.run(); });
    ASSERT_TRUE(server.waitReady(10000));
    {
        TestClient client(socket_path);
        serve::Request request;
        request.id = 4;
        request.fastq = fastqText(fx.reads, 0, 2);
        request.hasDeadline = true;
        request.deadlineUs = 20 * 1000;
        client.send(serve::encodeRequest(request));
        const serve::Response shed = client.awaitResponse();
        EXPECT_EQ(shed.id, 4u);
        EXPECT_EQ(shed.status, serve::Status::kDeadlineExceeded);
        EXPECT_EQ(shed.body, "deadline expired while queued");
    }
    server.stop();
    daemon.join();
    // The proof the expired request never reached mapBatch(): the
    // daemon mapped zero reads.
    EXPECT_EQ(server.totals().reads, 0u);
    EXPECT_EQ(server.totals().deadlineExceeded, 1u);
}

TEST(ServeServer, ExpiredMidQueueRequestsAreShedOutOfMixedBatches)
{
    const ServeFixture &fx = serveFixture();
    const std::string socket_path = socketPathFor("deadlinemix");
    ::unlink(socket_path.c_str());
    serve::ServeConfig serve_config;
    serve_config.socketPath = socket_path;
    serve_config.maxBatchReads = 1000;
    serve_config.maxWaitUs = 300 * 1000;
    serve::Server server(fx.context, serve_config);
    std::thread daemon([&server] { server.run(); });
    ASSERT_TRUE(server.waitReady(10000));
    {
        TestClient client(socket_path);
        // Two requests share the batch window; only one has a
        // deadline shorter than it. The batch that reaches mapBatch()
        // must contain exactly the survivor's reads.
        serve::Request doomed;
        doomed.id = 1;
        doomed.fastq = fastqText(fx.reads, 0, 2);
        doomed.hasDeadline = true;
        doomed.deadlineUs = 20 * 1000;
        client.send(serve::encodeRequest(doomed));
        serve::Request survivor;
        survivor.id = 2;
        survivor.fastq = fastqText(fx.reads, 2, 3);
        client.send(serve::encodeRequest(survivor));

        const serve::Response shed = client.awaitResponse();
        EXPECT_EQ(shed.id, 1u);
        EXPECT_EQ(shed.status, serve::Status::kDeadlineExceeded);
        const serve::Response ok = client.awaitResponse();
        EXPECT_EQ(ok.id, 2u);
        EXPECT_EQ(ok.status, serve::Status::kOk);
    }
    server.stop();
    daemon.join();
    EXPECT_EQ(server.totals().reads, 3u); // the survivor's, only
    EXPECT_EQ(server.totals().deadlineExceeded, 1u);
}

// ---- health + control frames -------------------------------------------

TEST(ServeServer, PingAnswersPongWithoutQueueing)
{
    const ServeFixture &fx = serveFixture();
    const std::string socket_path = socketPathFor("ping");
    ::unlink(socket_path.c_str());
    // A huge batch window: if PING went through the admission queue
    // it would sit there for the window; answered inline it is
    // immediate — the test's 300 s ctest timeout is the backstop.
    serve::ServeConfig serve_config;
    serve_config.socketPath = socket_path;
    serve_config.maxWaitUs = 60u * 1000 * 1000;
    serve::Server server(fx.context, serve_config);
    std::thread daemon([&server] { server.run(); });
    ASSERT_TRUE(server.waitReady(10000));
    {
        TestClient client(socket_path);
        client.send(serve::encodeControl(serve::MsgType::kPing, 11));
        const serve::Response pong = client.awaitResponse();
        EXPECT_EQ(pong.id, 11u);
        EXPECT_EQ(pong.status, serve::Status::kOk);
        EXPECT_EQ(pong.body, "pong");
    }
    server.stop();
    daemon.join();
}

TEST(ServeServer, StatusAnswersMetricsSnapshot)
{
    const ServeFixture &fx = serveFixture();
    const std::string socket_path = socketPathFor("status");
    ::unlink(socket_path.c_str());
    serve::ServeConfig serve_config;
    serve_config.socketPath = socket_path;
    serve_config.maxWaitUs = 500;
    serve::Server server(fx.context, serve_config);
    std::thread daemon([&server] { server.run(); });
    ASSERT_TRUE(server.waitReady(10000));
    {
        // runControl is the `pgb ctl` client path; exercising it here
        // covers frame encode, the inline dispatch, and decode.
        const serve::Response status =
            serve::runControl(socket_path, serve::MsgType::kStatus);
        EXPECT_EQ(status.status, serve::Status::kOk);
        EXPECT_NE(status.body.find("pgb.metrics.v1"),
                  std::string::npos);
        EXPECT_NE(status.body.find("serve.requests"),
                  std::string::npos);
    }
    server.stop();
    daemon.join();
}

TEST(ServeServer, StatusShowsSummedResidencyOfTwoLiveContexts)
{
    // The serving context and a second one over the same graph both
    // hold shard 0 resident: a snapshot names every metric once, the
    // shard's entry counts both sources, and the status frame shows it.
    const ServeFixture &fx = serveFixture();
    const auto before = obs::snapshot();
    const auto second = pipeline::MappingContext::Builder()
                            .fromGraph(fx.pangenome.graph)
                            .build();
    const auto both = obs::snapshot();
    std::vector<std::string> names;
    for (const auto &entry : both.counters)
        names.push_back(entry.first);
    for (const auto &entry : both.gauges)
        names.push_back(entry.first);
    std::sort(names.begin(), names.end());
    const auto duplicate = std::adjacent_find(names.begin(), names.end());
    EXPECT_EQ(duplicate, names.end()) << "duplicate metric " << *duplicate;
    const uint64_t resident = both.counter("shard.0.resident");
    EXPECT_EQ(resident, before.counter("shard.0.resident") + 1);
    EXPECT_GE(resident, 2u);

    const std::string socket_path = socketPathFor("status_two");
    ::unlink(socket_path.c_str());
    serve::ServeConfig serve_config;
    serve_config.socketPath = socket_path;
    serve_config.maxWaitUs = 500;
    serve::Server server(fx.context, serve_config);
    std::thread daemon([&server] { server.run(); });
    ASSERT_TRUE(server.waitReady(10000));
    {
        const serve::Response status =
            serve::runControl(socket_path, serve::MsgType::kStatus);
        EXPECT_EQ(status.status, serve::Status::kOk);
        std::string entry = "\"shard.0.resident\": ";
        entry += std::to_string(resident);
        const size_t at = status.body.find(entry);
        EXPECT_NE(at, std::string::npos) << status.body;
        EXPECT_EQ(status.body.find("\"shard.0.resident\"", at + 1),
                  std::string::npos)
            << status.body;
    }
    server.stop();
    daemon.join();
}

// ---- hot index reload --------------------------------------------------

/** A `.pgbi` artifact over the shared fixture's graph, plus a context
 *  loaded from it — what a reloadable daemon serves. */
struct ArtifactFixture
{
    std::string path;
    std::shared_ptr<const pipeline::MappingContext> context;

    ArtifactFixture()
    {
        const ServeFixture &fx = serveFixture();
        path = test::testTempPath("pgb_serve_reload.pgbi");
        const index::MinimizerIndex minimizers(fx.pangenome.graph, 15,
                                               10, 1);
        const index::GbwtIndex gbwt(fx.pangenome.graph, true, 1);
        store::writeArtifact(path, fx.pangenome.graph, minimizers,
                             &gbwt);
        context = pipeline::MappingContext::Builder()
                      .fromArtifact(path)
                      .build();
    }
};

const ArtifactFixture &
artifactFixture()
{
    static ArtifactFixture instance;
    return instance;
}

TEST(ServeServer, ReloadFrameSwapsIndexAndKeepsServing)
{
    const ServeFixture &fx = serveFixture();
    const ArtifactFixture &art = artifactFixture();
    const std::string socket_path = socketPathFor("reload");
    ::unlink(socket_path.c_str());
    serve::ServeConfig serve_config;
    serve_config.socketPath = socket_path;
    serve_config.maxWaitUs = 500;
    serve_config.indexPath = art.path;
    serve::Server server(art.context, serve_config);
    std::thread daemon([&server] { server.run(); });
    ASSERT_TRUE(server.waitReady(10000));
    {
        TestClient client(socket_path);
        serve::Request before;
        before.id = 1;
        before.fastq = fastqText(fx.reads, 0, 2);
        client.send(serve::encodeRequest(before));
        const serve::Response first = client.awaitResponse();
        EXPECT_EQ(first.status, serve::Status::kOk);

        client.send(serve::encodeControl(serve::MsgType::kReload, 2));
        const serve::Response reloaded = client.awaitResponse();
        EXPECT_EQ(reloaded.id, 2u);
        EXPECT_EQ(reloaded.status, serve::Status::kOk);
        EXPECT_NE(reloaded.body.find("reloaded"), std::string::npos);

        // Mapping on the swapped index matches the pre-reload answer:
        // same artifact, so byte-identical output.
        serve::Request after;
        after.id = 3;
        after.fastq = before.fastq;
        client.send(serve::encodeRequest(after));
        const serve::Response second = client.awaitResponse();
        EXPECT_EQ(second.status, serve::Status::kOk);
        EXPECT_EQ(second.body, first.body);
    }
    server.stop();
    daemon.join();
    EXPECT_EQ(server.totals().reloadsOk, 1u);
    EXPECT_EQ(server.totals().reloadsFailed, 0u);
}

TEST(ServeServer, FailedReloadKeepsServingOldIndex)
{
    const ServeFixture &fx = serveFixture();
    const ArtifactFixture &art = artifactFixture();
    const std::string socket_path = socketPathFor("reloadfail");
    ::unlink(socket_path.c_str());
    serve::ServeConfig serve_config;
    serve_config.socketPath = socket_path;
    serve_config.maxWaitUs = 500;
    serve_config.indexPath = art.path;
    serve::Server server(art.context, serve_config);
    std::thread daemon([&server] { server.run(); });
    ASSERT_TRUE(server.waitReady(10000));

    core::fault::disarmAll();
    core::fault::arm("serve.reload", 1);
    {
        TestClient client(socket_path);
        client.send(serve::encodeControl(serve::MsgType::kReload, 1));
        const serve::Response failed = client.awaitResponse();
        EXPECT_EQ(failed.id, 1u);
        EXPECT_EQ(failed.status, serve::Status::kError);
        EXPECT_FALSE(failed.body.empty());

        // Graceful degradation: the old index keeps serving.
        serve::Request request;
        request.id = 2;
        request.fastq = fastqText(fx.reads, 0, 1);
        client.send(serve::encodeRequest(request));
        const serve::Response ok = client.awaitResponse();
        EXPECT_EQ(ok.id, 2u);
        EXPECT_EQ(ok.status, serve::Status::kOk);
    }
    core::fault::disarmAll();
    server.stop();
    daemon.join();
    EXPECT_EQ(server.totals().reloadsFailed, 1u);
    EXPECT_EQ(server.totals().reloadsOk, 0u);
}

TEST(ServeServer, GiraffeOverAContextWithoutGbwtFailsAtConstruction)
{
    const auto context = pipeline::MappingContext::Builder()
                             .fromGraph(serveFixture().pangenome.graph)
                             .build();
    serve::ServeConfig serve_config;
    serve_config.socketPath = socketPathFor("nogbwt");
    serve_config.profile = pipeline::ToolProfile::kVgGiraffe;
    EXPECT_THROW(serve::Server(context, serve_config), core::FatalError);
}

TEST(ServeServer, GiraffeReloadToAnArtifactWithoutGbwtKeepsOldIndex)
{
    // Reload validates the fresh index as start-up does: a giraffe
    // daemon refuses an artifact without a GBWT and keeps serving.
    const ServeFixture &fx = serveFixture();
    const std::string path =
        test::testTempPath("pgb_serve_reload_nogbwt.pgbi");
    const index::MinimizerIndex minimizers(fx.pangenome.graph, 15, 10, 1);
    const index::GbwtIndex gbwt(fx.pangenome.graph, true, 1);
    store::writeArtifact(path, fx.pangenome.graph, minimizers, &gbwt);
    const auto context =
        pipeline::MappingContext::Builder().fromArtifact(path).build();
    // Replace the file (atomic rename): the served context keeps the
    // old mapping, the next reload reads the GBWT-less artifact.
    store::writeArtifact(path, fx.pangenome.graph, minimizers, nullptr);

    const std::string socket_path = socketPathFor("reloadnogbwt");
    ::unlink(socket_path.c_str());
    serve::ServeConfig serve_config;
    serve_config.socketPath = socket_path;
    serve_config.maxWaitUs = 500;
    serve_config.indexPath = path;
    serve_config.profile = pipeline::ToolProfile::kVgGiraffe;
    serve::Server server(context, serve_config);
    std::thread daemon([&server] { server.run(); });
    ASSERT_TRUE(server.waitReady(10000));
    {
        TestClient client(socket_path);
        client.send(serve::encodeControl(serve::MsgType::kReload, 1));
        const serve::Response failed = client.awaitResponse();
        EXPECT_EQ(failed.id, 1u);
        EXPECT_EQ(failed.status, serve::Status::kError);
        EXPECT_NE(failed.body.find("needs a GBWT"), std::string::npos)
            << failed.body;

        serve::Request request;
        request.id = 2;
        request.fastq = fastqText(fx.reads, 0, 1);
        client.send(serve::encodeRequest(request));
        const serve::Response ok = client.awaitResponse();
        EXPECT_EQ(ok.id, 2u);
        EXPECT_EQ(ok.status, serve::Status::kOk);
    }
    server.stop();
    daemon.join();
    EXPECT_EQ(server.totals().reloadsFailed, 1u);
    EXPECT_EQ(server.totals().reloadsOk, 0u);
}

TEST(ServeServer, ReloadWithoutArtifactFailsGracefully)
{
    const ServeFixture &fx = serveFixture();
    const std::string socket_path = socketPathFor("reloadnone");
    ::unlink(socket_path.c_str());
    // In-memory context, no indexPath: reload is unsupported and must
    // say so without disturbing service.
    serve::ServeConfig serve_config;
    serve_config.socketPath = socket_path;
    serve_config.maxWaitUs = 500;
    serve::Server server(fx.context, serve_config);
    std::thread daemon([&server] { server.run(); });
    ASSERT_TRUE(server.waitReady(10000));
    {
        const serve::Response refused =
            serve::runControl(socket_path, serve::MsgType::kReload);
        EXPECT_EQ(refused.status, serve::Status::kError);
        EXPECT_NE(refused.body.find("without --index"),
                  std::string::npos);

        TestClient client(socket_path);
        serve::Request request;
        request.id = 1;
        request.fastq = fastqText(fx.reads, 0, 1);
        client.send(serve::encodeRequest(request));
        EXPECT_EQ(client.awaitResponse().status, serve::Status::kOk);
    }
    server.stop();
    daemon.join();
    EXPECT_EQ(server.totals().reloadsFailed, 1u);
}

TEST(ServeServer, ReloadUnderLoadKeepsDigestIdentity)
{
    // The acceptance bar for hot reload: swapping the index mid-run
    // (same artifact) must not change a single served byte, at every
    // pool width (this suite runs under serve_threads_1/8), and no
    // in-flight request may be dropped.
    const ServeFixture &fx = serveFixture();
    const ArtifactFixture &art = artifactFixture();

    pipeline::MapperConfig config = pipeline::MapperConfig::forTool(
        pipeline::ToolProfile::kVgMap);
    config.k = art.context->k();
    config.w = art.context->w();
    config.threads = core::hardwareThreads();
    std::vector<pipeline::ReadMapping> mappings;
    pipeline::mapBatch(*art.context, config, fx.reads, mappings);
    const std::string direct =
        serve::formatMappings(fx.reads, mappings);

    const std::string socket_path = socketPathFor("reloadload");
    ::unlink(socket_path.c_str());
    serve::ServeConfig serve_config;
    serve_config.socketPath = socket_path;
    serve_config.maxBatchReads = 8;
    serve_config.maxWaitUs = 500;
    serve_config.indexPath = art.path;
    serve::Server server(art.context, serve_config);
    std::thread daemon([&server] { server.run(); });
    ASSERT_TRUE(server.waitReady(10000));

    std::atomic<bool> done{false};
    std::thread reloader([&] {
        while (!done.load()) {
            const serve::Response response = serve::runControl(
                socket_path, serve::MsgType::kReload);
            // OK, or ERROR("reload already in progress") when we
            // outpace the loader — both are contract-clean.
            if (response.status != serve::Status::kOk) {
                EXPECT_NE(response.body.find("in progress"),
                          std::string::npos)
                    << response.body;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
    });

    const std::string dump_path =
        test::testTempPath("pgb_reload_dump.tsv");
    serve::LoadgenConfig loadgen;
    loadgen.socketPath = socket_path;
    loadgen.connections = 2;
    loadgen.readsPerRequest = 3;
    loadgen.dumpPath = dump_path;
    const serve::LoadgenReport report =
        serve::runLoadgen(loadgen, fx.reads);
    done.store(true);
    reloader.join();
    server.stop();
    daemon.join();

    // No dropped in-flight requests, and byte-identical output.
    EXPECT_EQ(report.ok, (fx.reads.size() + 2) / 3);
    EXPECT_EQ(report.errors, 0u);
    EXPECT_EQ(report.overloaded, 0u);
    std::ifstream dumped(dump_path, std::ios::binary);
    ASSERT_TRUE(dumped.good());
    std::stringstream served;
    served << dumped.rdbuf();
    EXPECT_EQ(served.str(), direct);
    EXPECT_GE(server.totals().reloadsOk, 1u);
}

// ---- watchdog ----------------------------------------------------------

TEST(ServeServer, WatchdogReportsStalledBatchWithDiagnostics)
{
    const ServeFixture &fx = serveFixture();
    const std::string socket_path = socketPathFor("watchdog");
    ::unlink(socket_path.c_str());
    serve::ServeConfig serve_config;
    serve_config.socketPath = socket_path;
    serve_config.maxWaitUs = 500;
    serve_config.stallBudgetMs = 50;
    std::promise<std::string> dumped;
    std::atomic<bool> fired{false};
    serve_config.onStall = [&](const std::string &dump) {
        if (!fired.exchange(true))
            dumped.set_value(dump);
    };
    serve::Server server(fx.context, serve_config);
    std::thread daemon([&server] { server.run(); });
    ASSERT_TRUE(server.waitReady(10000));

    core::fault::disarmAll();
    core::fault::arm("serve.stall", 1);
    {
        TestClient client(socket_path);
        serve::Request request;
        request.id = 1;
        request.fastq = fastqText(fx.reads, 0, 1);
        client.send(serve::encodeRequest(request));

        auto future = dumped.get_future();
        ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
                  std::future_status::ready)
            << "watchdog never fired";
        const std::string dump = future.get();
        EXPECT_NE(dump.find("watchdog"), std::string::npos) << dump;
        EXPECT_NE(dump.find("open connections"), std::string::npos);
        EXPECT_NE(dump.find("queue depth"), std::string::npos);
        EXPECT_NE(dump.find("oldest admission age"),
                  std::string::npos);

        // With the test hook installed the daemon survives the stall
        // and still answers once the injected hold ends.
        const serve::Response ok = client.awaitResponse();
        EXPECT_EQ(ok.id, 1u);
        EXPECT_EQ(ok.status, serve::Status::kOk);
    }
    core::fault::disarmAll();
    server.stop();
    daemon.join();
    EXPECT_GE(server.totals().watchdogStalls, 1u);
}

} // namespace
