#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "core/fault.hpp"
#include "core/logging.hpp"
#include "core/thread_pool.hpp"
#include "core/timer.hpp"
#include "obs/histogram.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "seq/fasta.hpp"
#include "serve/batcher.hpp"
#include "serve/protocol.hpp"

namespace pgb::serve {

namespace {

// DESIGN.md §6 fault sites: each injects the corresponding syscall
// failure, and each must cost exactly one connection (accept: the
// pending one), never the daemon.
core::FaultSite faultAccept(
    "serve.accept",
    "warn + drop that one pending connection; daemon keeps serving");
core::FaultSite faultRead(
    "serve.read",
    "warn + drop that connection; others unaffected");
core::FaultSite faultWrite(
    "serve.write",
    "warn + drop that connection; the daemon never dies for a peer");
core::FaultSite faultReload(
    "serve.reload",
    "warn + keep serving the previous index; reloads_failed counter");
core::FaultSite faultStall(
    "serve.stall",
    "batch stalls past the watchdog budget; diagnostic dump + exit 1");

obs::Counter obsConnections("serve.connections");
obs::Counter obsRequests("serve.requests");
obs::Counter obsResponses("serve.responses");
obs::Counter obsBadFrames("serve.bad_frames");
obs::Counter obsBadRequests("serve.bad_requests");
obs::Counter obsErrors("serve.errors");
obs::Counter obsDeadlineExceeded("serve.deadline_exceeded");
obs::Counter obsReloadsOk("serve.reloads_ok");
obs::Counter obsReloadsFailed("serve.reloads_failed");
obs::Counter obsWatchdogStalls("serve.watchdog_stalls");
/** Admission-to-response-written latency, the server-side view the
 *  loadgen's client-side quantiles are compared against. */
obs::Histogram obsRequestNanos("serve.request_nanos");

/** Accept/read poll granularity: the upper bound on how stale the
 *  stop flag can get, and thus on shutdown latency. */
constexpr int kPollMillis = 100;

} // namespace

/**
 * One client. The reader thread owns the fd's input side; responses
 * are written by the batcher thread (and by readers, for shed/error
 * replies), serialized by writeLock. `alive` flips once, on the first
 * failure, after which every pending response for this client is
 * silently dropped — the peer is gone, the requests already admitted
 * still map (batch composition is not unwound), only delivery stops.
 */
struct Server::Connection
{
    int readFd = -1;
    int writeFd = -1;
    /** stdio mode borrows fds 0/1 and must not close them. */
    bool ownsFds = false;
    std::mutex writeLock;
    std::atomic<bool> alive{true};

    ~Connection()
    {
        if (ownsFds && readFd >= 0)
            ::close(readFd);
    }

    /** Unblock the peer and stop all future writes. */
    void
    deactivate()
    {
        alive.store(false, std::memory_order_release);
        if (ownsFds && readFd >= 0)
            ::shutdown(readFd, SHUT_RDWR);
    }
};

Server::Server(std::shared_ptr<const pipeline::MappingContext> context,
               ServeConfig config)
    : context_(std::move(context)), config_(std::move(config)),
      mapperConfig_(pipeline::MapperConfig::forTool(config_.profile)),
      queue_(config_.queueDepth)
{
    mapperConfig_.k = context_->k();
    mapperConfig_.w = context_->w();
    mapperConfig_.threads = core::clampThreads(
        config_.threads == 0 ? core::hardwareThreads() : config_.threads);
    // Fail profile/context mismatches (giraffe without a GBWT) at
    // startup, not on the first batch.
    pipeline::checkConfig(*context_, mapperConfig_);
}

Server::~Server() { joinReloader(); }

void
Server::joinReloader()
{
    std::lock_guard<std::mutex> guard(reloaderLock_);
    if (reloader_.joinable())
        reloader_.join();
}

Server::ServingIndex
Server::currentIndex() const
{
    std::lock_guard<std::mutex> guard(indexLock_);
    return {context_, mapperConfig_};
}

void
Server::markReady()
{
    {
        std::lock_guard<std::mutex> guard(readyLock_);
        ready_ = true;
    }
    readyCv_.notify_all();
    if (config_.onReady) {
        config_.onReady();
    }
}

bool
Server::waitReady(uint64_t timeout_ms) const
{
    std::unique_lock<std::mutex> guard(readyLock_);
    return readyCv_.wait_for(guard, std::chrono::milliseconds(timeout_ms),
                             [&] { return ready_; });
}

Server::Totals
Server::totals() const
{
    Totals t;
    t.connections = connectionCount_.load(std::memory_order_relaxed);
    t.requests = requestCount_.load(std::memory_order_relaxed);
    t.responses = responseCount_.load(std::memory_order_relaxed);
    t.shed = shedCount_.load(std::memory_order_relaxed);
    t.batches = batchCount_.load(std::memory_order_relaxed);
    t.reads = readCount_.load(std::memory_order_relaxed);
    t.badFrames = badFrameCount_.load(std::memory_order_relaxed);
    t.deadlineExceeded =
        deadlineExceededCount_.load(std::memory_order_relaxed);
    t.reloadsOk = reloadOkCount_.load(std::memory_order_relaxed);
    t.reloadsFailed = reloadFailedCount_.load(std::memory_order_relaxed);
    t.watchdogStalls =
        watchdogStallCount_.load(std::memory_order_relaxed);
    return t;
}

void
Server::run()
{
    // A peer that hangs up mid-response must surface as EPIPE on the
    // write (one dropped connection, §6), not as SIGPIPE process
    // death.
    std::signal(SIGPIPE, SIG_IGN);
    monitorStop_.store(false, std::memory_order_release);
    std::thread monitor([this] { monitorLoop(); });
    // The transport loops fatal() on environment errors and stdio
    // framing violations; the monitor must be joined on every path.
    try {
        if (config_.stdio)
            runStdio();
        else
            runSocket();
    } catch (...) {
        monitorStop_.store(true, std::memory_order_release);
        monitor.join();
        joinReloader();
        throw;
    }
    monitorStop_.store(true, std::memory_order_release);
    monitor.join();
    joinReloader();
}

void
Server::runStdio()
{
    auto connection = std::make_shared<Connection>();
    connection->readFd = STDIN_FILENO;
    connection->writeFd = STDOUT_FILENO;
    connection->ownsFds = false;
    connectionCount_.fetch_add(1, std::memory_order_relaxed);
    obsConnections.add();

    std::thread batcher([this] { batcherLoop(); });
    markReady();

    // One implicit connection on the caller's thread; EOF is the
    // shutdown signal. Admitted requests are still answered before
    // run() returns — close() stops admission, not delivery.
    readerLoop(connection);
    queue_.close();
    batcher.join();

    if (!stdioError_.empty()) {
        // A framing violation with stdio transport has no connection
        // to sacrifice: the sole peer's stream is unrecoverable, so
        // the error contract's fatal path applies.
        core::fatal(stdioError_);
    }
}

void
Server::runSocket()
{
    const std::string &path = config_.socketPath;
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(address.sun_path)) {
        core::fatal("serve: socket path '", path, "' must be 1-",
                    sizeof(address.sun_path) - 1, " characters");
    }
    std::memcpy(address.sun_path, path.c_str(), path.size() + 1);

    const int listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd < 0)
        core::fatal("serve: cannot create socket: ", std::strerror(errno));
    if (::bind(listenFd, reinterpret_cast<const sockaddr *>(&address),
               sizeof(address)) < 0) {
        const int bindErrno = errno;
        ::close(listenFd);
        if (bindErrno == EADDRINUSE) {
            core::fatal("serve: socket path '", path,
                        "' already exists (another daemon, or a stale "
                        "socket file to remove)");
        }
        core::fatal("serve: cannot bind '", path,
                    "': ", std::strerror(bindErrno));
    }
    if (::listen(listenFd, 64) < 0) {
        const int listenErrno = errno;
        ::close(listenFd);
        ::unlink(path.c_str());
        core::fatal("serve: cannot listen on '", path,
                    "': ", std::strerror(listenErrno));
    }

    std::thread batcher([this] { batcherLoop(); });
    markReady();

    while (!stop_.load(std::memory_order_acquire)) {
        // Reap readers whose connections already ended, so a
        // long-lived daemon's thread table tracks live connections,
        // not lifetime connections.
        {
            std::lock_guard<std::mutex> guard(connectionsLock_);
            for (size_t slot : finishedReaders_) {
                if (readers_[slot].joinable())
                    readers_[slot].join();
            }
            finishedReaders_.clear();
        }

        pollfd waiter{listenFd, POLLIN, 0};
        const int readyCount = ::poll(&waiter, 1, kPollMillis);
        if (readyCount <= 0) {
            if (readyCount < 0 && errno != EINTR && errno != EAGAIN) {
                core::warn("serve: poll failed: ", std::strerror(errno),
                           "; continuing");
            }
            continue;
        }

        const int clientFd = ::accept(listenFd, nullptr, nullptr);
        const bool injected = faultAccept.fire();
        if (clientFd < 0 || injected) {
            // §6: accept failure costs the pending connection only.
            if (clientFd >= 0)
                ::close(clientFd);
            if (injected || (errno != EINTR && errno != EAGAIN &&
                             errno != ECONNABORTED)) {
                core::warn("serve: accept failed: ",
                           injected ? "injected fault (serve.accept)"
                                    : std::strerror(errno),
                           "; connection dropped, still serving");
            }
            continue;
        }

        auto connection = std::make_shared<Connection>();
        connection->readFd = clientFd;
        connection->writeFd = clientFd;
        connection->ownsFds = true;
        connectionCount_.fetch_add(1, std::memory_order_relaxed);
        obsConnections.add();

        std::lock_guard<std::mutex> guard(connectionsLock_);
        const size_t slot = readers_.size();
        connections_.push_back(connection);
        readers_.emplace_back([this, connection, slot] {
            readerLoop(connection);
            std::lock_guard<std::mutex> reap(connectionsLock_);
            finishedReaders_.push_back(slot);
        });
    }

    // Shutdown: stop the intake edge first (listener, then readers),
    // then let the batcher drain what was already admitted.
    ::close(listenFd);
    ::unlink(path.c_str());
    {
        std::lock_guard<std::mutex> guard(connectionsLock_);
        for (const std::weak_ptr<Connection> &weak : connections_) {
            if (auto connection = weak.lock())
                connection->deactivate();
        }
    }
    for (std::thread &reader : readers_) {
        if (reader.joinable())
            reader.join();
    }
    queue_.close();
    batcher.join();
}

void
Server::readerLoop(const std::shared_ptr<Connection> &connection)
{
    FrameDecoder decoder;
    std::string payload;
    char buffer[64 * 1024];
    bool broken = false;

    while (!stop_.load(std::memory_order_acquire) &&
           connection->alive.load(std::memory_order_acquire)) {
        pollfd waiter{connection->readFd, POLLIN, 0};
        const int readyCount = ::poll(&waiter, 1, kPollMillis);
        if (readyCount < 0) {
            if (errno == EINTR)
                continue;
            broken = true;
            break;
        }
        if (readyCount == 0)
            continue; // poll timeout: re-check stop/alive

        const ssize_t got =
            ::read(connection->readFd, buffer, sizeof(buffer));
        if (got < 0 && errno == EINTR)
            continue;
        if (got == 0) {
            // Clean EOF ends the *read* side only: requests already
            // admitted still get their responses written (the stdio
            // client sends-all-then-EOF; a socket peer may half-close
            // the same way). A peer that is fully gone surfaces as
            // EPIPE on the write, which drops the connection then.
            break;
        }
        if (got < 0 || faultRead.fire()) {
            core::warn("serve: read failed: ",
                       got < 0 ? std::strerror(errno)
                               : "injected fault (serve.read)",
                       "; connection dropped, still serving");
            broken = true;
            break;
        }

        decoder.feed(buffer, static_cast<size_t>(got));
        while (decoder.next(payload))
            handlePayload(connection, payload);
        if (decoder.error()) {
            badFrameCount_.fetch_add(1, std::memory_order_relaxed);
            obsBadFrames.add();
            if (config_.stdio) {
                stdioError_ =
                    "serve: malformed frame on stdin: " +
                    decoder.errorMessage();
            } else {
                core::warn("serve: malformed frame: ",
                           decoder.errorMessage(),
                           "; connection dropped, still serving");
            }
            broken = true;
            break;
        }
    }
    // A clean EOF leaves the write side open for queued responses;
    // every failure path severs the connection entirely.
    if (broken)
        connection->deactivate();
}

void
Server::handlePayload(const std::shared_ptr<Connection> &connection,
                      const std::string &payload)
{
    Request request;
    std::string error;
    if (!decodeRequest(payload, request, error)) {
        badFrameCount_.fetch_add(1, std::memory_order_relaxed);
        obsBadFrames.add();
        if (config_.stdio && stdioError_.empty())
            stdioError_ = "serve: malformed request on stdin: " + error;
        else if (!config_.stdio)
            core::warn("serve: malformed request: ", error,
                       "; connection dropped, still serving");
        connection->deactivate();
        return;
    }

    requestCount_.fetch_add(1, std::memory_order_relaxed);
    obsRequests.add();

    // Control frames bypass admission entirely: a health probe or an
    // operator's reload must not be sheddable behind mapping load.
    switch (request.type) {
    case MsgType::kPing:
        respond(connection, request.id, Status::kOk, "pong");
        return;
    case MsgType::kStatus:
        respond(connection, request.id, Status::kOk,
                obs::Report::collect().toJson());
        return;
    case MsgType::kReload:
        startReload(connection, request.id);
        return;
    default:
        break; // kMapRequest falls through to the mapping path
    }

    // A well-formed frame carrying malformed FASTQ is a *request*
    // error: one ERROR response, connection unharmed.
    Pending pending;
    pending.id = request.id;
    try {
        std::istringstream input(request.fastq);
        pending.reads = seq::readFastq(input);
    } catch (const core::FatalError &parseError) {
        obsBadRequests.add();
        respond(connection, request.id, Status::kError, parseError.what());
        return;
    }
    pending.client = connection;
    pending.enqueueNanos = core::monotonicNanos();
    if (request.hasDeadline) {
        // The budget is relative to decode time; saturate rather than
        // wrap on absurd values.
        const uint64_t budgetNanos =
            request.deadlineUs < UINT64_MAX / 1000
                ? request.deadlineUs * 1000
                : UINT64_MAX - pending.enqueueNanos;
        pending.deadlineNanos = pending.enqueueNanos + budgetNanos;
        // A zero (or already-lapsed) budget sheds at admission: the
        // client asked for work it no longer wants.
        if (pending.enqueueNanos >= pending.deadlineNanos) {
            deadlineExceededCount_.fetch_add(1,
                                             std::memory_order_relaxed);
            obsDeadlineExceeded.add();
            respond(connection, request.id, Status::kDeadlineExceeded,
                    "deadline expired at admission");
            return;
        }
    }

    switch (queue_.push(std::move(pending))) {
    case AdmissionQueue::Push::kAccepted:
        break;
    case AdmissionQueue::Push::kShed:
        shedCount_.fetch_add(1, std::memory_order_relaxed);
        respond(connection, request.id, Status::kOverloaded,
                "request queue full");
        break;
    case AdmissionQueue::Push::kClosed:
        // Shutting down; the client sees the connection close.
        break;
    }
}

void
Server::batcherLoop()
{
    Batcher batcher(queue_, config_.maxBatchReads, config_.maxWaitUs);
    std::vector<Pending> batch;
    std::vector<seq::Sequence> reads;
    std::vector<pipeline::ReadMapping> mappings;

    while (batcher.nextBatch(batch)) {
        // Shed requests whose deadline lapsed in the queue *before*
        // composing the batch: a request nobody is waiting for must
        // never consume mapBatch() work.
        const uint64_t shedNow = core::monotonicNanos();
        size_t kept = 0;
        for (size_t i = 0; i < batch.size(); ++i) {
            Pending &item = batch[i];
            if (item.deadlineNanos != 0 &&
                shedNow >= item.deadlineNanos) {
                deadlineExceededCount_.fetch_add(
                    1, std::memory_order_relaxed);
                obsDeadlineExceeded.add();
                respond(std::static_pointer_cast<Connection>(item.client),
                        item.id, Status::kDeadlineExceeded,
                        "deadline expired while queued");
                obsRequestNanos.record(shedNow - item.enqueueNanos);
                continue;
            }
            if (kept != i)
                batch[kept] = std::move(item);
            ++kept;
        }
        batch.resize(kept);
        if (batch.empty())
            continue;

        // The index is picked up at composition time: a hot reload
        // swaps it between batches, never under a running one.
        const ServingIndex serving = currentIndex();

        obs::Span span("serve.batch");
        batchCount_.fetch_add(1, std::memory_order_relaxed);

        reads.clear();
        for (const Pending &item : batch) {
            reads.insert(reads.end(), item.reads.begin(),
                         item.reads.end());
        }
        readCount_.fetch_add(reads.size(), std::memory_order_relaxed);

        batchStartNanos_.store(core::monotonicNanos(),
                               std::memory_order_release);
        if (faultStall.fire()) {
            const uint64_t holdMs = config_.stallBudgetMs > 0
                                        ? config_.stallBudgetMs * 2
                                        : 5000;
            core::warn("serve: injected stall (serve.stall): holding "
                       "the batch ",
                       holdMs, " ms");
            std::this_thread::sleep_for(
                std::chrono::milliseconds(holdMs));
        }

        bool mapFailed = false;
        std::string mapError;
        try {
            pipeline::mapBatch(*serving.context, serving.config, reads,
                               mappings);
        } catch (const std::exception &batchError) {
            // §6 request-level failure: every request in the batch
            // gets an ERROR response; the daemon keeps serving.
            mapFailed = true;
            mapError = batchError.what();
            obsErrors.add(batch.size());
            core::warn("serve: batch of ", batch.size(),
                       " request(s) failed: ", mapError,
                       "; still serving");
        }
        batchStartNanos_.store(0, std::memory_order_release);

        size_t offset = 0;
        for (const Pending &item : batch) {
            obs::Span requestSpan("serve.request");
            auto connection =
                std::static_pointer_cast<Connection>(item.client);
            if (mapFailed) {
                respond(connection, item.id, Status::kError, mapError);
            } else {
                std::span<const seq::Sequence> itemReads(
                    item.reads.data(), item.reads.size());
                std::span<const pipeline::ReadMapping> itemMappings(
                    mappings.data() + offset, item.reads.size());
                respond(connection, item.id, Status::kOk,
                        formatMappings(itemReads, itemMappings));
            }
            offset += item.reads.size();
            obsRequestNanos.record(core::monotonicNanos() -
                                   item.enqueueNanos);
        }
    }
}

void
Server::respond(const std::shared_ptr<Connection> &connection, uint64_t id,
                Status status, std::string body)
{
    Response response;
    response.id = id;
    response.status = status;
    response.body = std::move(body);
    if (connection && writeFrame(*connection, encodeResponse(response))) {
        responseCount_.fetch_add(1, std::memory_order_relaxed);
        obsResponses.add();
    }
}

void
Server::monitorLoop()
{
    const uint64_t budgetNanos = config_.stallBudgetMs * 1000000ull;
    // A stall already acted upon must not re-trigger every tick while
    // a test's onStall hook lets the batch finish.
    uint64_t handledStart = 0;
    while (!monitorStop_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));

        if (reloadRequested_.exchange(false, std::memory_order_acq_rel))
            startReload(nullptr, 0);

        if (budgetNanos == 0)
            continue;
        const uint64_t start =
            batchStartNanos_.load(std::memory_order_acquire);
        if (start == 0 || start == handledStart)
            continue;
        const uint64_t now = core::monotonicNanos();
        if (now - start <= budgetNanos)
            continue;
        handledStart = start;
        watchdogStallCount_.fetch_add(1, std::memory_order_relaxed);
        obsWatchdogStalls.add();
        const std::string dump = stallDump(now - start);
        if (config_.onStall) {
            config_.onStall(dump);
        } else {
            // Crash-only: a wedged daemon dies loudly with a clean
            // non-zero exit instead of hanging every client. _Exit,
            // not exit — running static destructors under a wedged
            // batch thread is how a diagnostic exit turns into a
            // second hang.
            std::fputs(dump.c_str(), stderr);
            std::fputc('\n', stderr);
            std::fflush(stderr);
            std::_Exit(1);
        }
    }
}

std::string
Server::stallDump(uint64_t stalledNanos) const
{
    const uint64_t front = queue_.frontEnqueueNanos();
    const uint64_t now = core::monotonicNanos();
    std::ostringstream out;
    out << "serve: watchdog: batch stalled "
        << stalledNanos / 1000000ull << " ms (budget "
        << config_.stallBudgetMs << " ms); open connections "
        << liveConnections() << "; queue depth " << queue_.depth()
        << "; oldest admission age "
        << (front == 0 ? 0 : (now - front) / 1000000ull) << " ms";
    return out.str();
}

size_t
Server::liveConnections() const
{
    std::lock_guard<std::mutex> guard(connectionsLock_);
    size_t live = 0;
    for (const std::weak_ptr<Connection> &weak : connections_) {
        if (auto connection = weak.lock()) {
            if (connection->alive.load(std::memory_order_acquire))
                ++live;
        }
    }
    return live;
}

void
Server::startReload(std::shared_ptr<Connection> connection, uint64_t id)
{
    if (reloadInFlight_.exchange(true, std::memory_order_acq_rel)) {
        // One reload at a time; a concurrent request is refused, not
        // queued — the operator can simply retry.
        respond(connection, id, Status::kError,
                "reload already in progress");
        return;
    }
    std::lock_guard<std::mutex> guard(reloaderLock_);
    if (reloader_.joinable())
        reloader_.join();
    reloader_ = std::thread(
        [this, connection = std::move(connection), id]() mutable {
            runReload(std::move(connection), id);
        });
}

void
Server::runReload(std::shared_ptr<Connection> connection, uint64_t id)
{
    obs::Span span("serve.reload");
    try {
        if (config_.indexPath.empty() && config_.shardsPath.empty()) {
            core::fatal("no .pgbi artifact or .pgbs shard set to "
                        "reload (daemon was started without "
                        "--index/--shards)");
        }
        if (faultReload.fire())
            core::fatal("injected fault (serve.reload)");

        // Load and fully validate off-thread: the store's own
        // checksummed load, then checkConfig — exactly the
        // constructor's startup checks.
        const std::string &source_path = config_.shardsPath.empty()
            ? config_.indexPath : config_.shardsPath;
        pipeline::MappingContext::Builder builder;
        if (config_.shardsPath.empty()) {
            builder.fromArtifact(config_.indexPath);
        } else {
            builder.fromManifest(config_.shardsPath)
                .shardCacheMb(config_.shardCacheMb);
        }
        auto fresh = builder.seeder(config_.seeder).build();
        pipeline::MapperConfig freshConfig =
            pipeline::MapperConfig::forTool(config_.profile);
        freshConfig.k = fresh->k();
        freshConfig.w = fresh->w();
        {
            std::lock_guard<std::mutex> guard(indexLock_);
            freshConfig.threads = mapperConfig_.threads;
        }
        pipeline::checkConfig(*fresh, freshConfig);

        {
            std::lock_guard<std::mutex> guard(indexLock_);
            context_ = std::move(fresh);
            mapperConfig_ = freshConfig;
        }
        reloadOkCount_.fetch_add(1, std::memory_order_relaxed);
        obsReloadsOk.add();
        core::inform("serve: reloaded index '", source_path,
                     "' (k=", freshConfig.k, ", w=", freshConfig.w,
                     "); in-flight batches finish on the old index");
        respond(connection, id, Status::kOk,
                "reloaded " + source_path);
    } catch (const std::exception &loadError) {
        reloadFailedCount_.fetch_add(1, std::memory_order_relaxed);
        obsReloadsFailed.add();
        core::warn("serve: reload failed: ", loadError.what(),
                   "; still serving the previous index");
        respond(connection, id, Status::kError, loadError.what());
    }
    reloadInFlight_.store(false, std::memory_order_release);
}

bool
Server::writeFrame(Connection &connection, const std::string &bytes)
{
    std::lock_guard<std::mutex> guard(connection.writeLock);
    if (!connection.alive.load(std::memory_order_acquire))
        return false;
    if (faultWrite.fire()) {
        core::warn("serve: write failed: injected fault (serve.write)",
                   "; connection dropped, still serving");
        connection.deactivate();
        return false;
    }
    size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t wrote = ::write(connection.writeFd,
                                      bytes.data() + sent,
                                      bytes.size() - sent);
        if (wrote < 0 && errno == EINTR)
            continue;
        if (wrote <= 0) {
            // §6: a peer that stopped reading (EPIPE et al.) costs
            // exactly this connection.
            core::warn("serve: write failed: ", std::strerror(errno),
                       "; connection dropped, still serving");
            connection.deactivate();
            return false;
        }
        sent += static_cast<size_t>(wrote);
    }
    return true;
}

} // namespace pgb::serve
