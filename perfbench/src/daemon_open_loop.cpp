// daemon_open_loop: an in-process rtdlsd (EDF-DLT, N=16, 2 shards, 3
// workers) driven over its Unix socket by one open-loop generator thread.
//
// The generator multiplexes three connections with ppoll(): one admission
// stream per shard (~90% admit, 5% commit, 5% cancel) and one monitoring
// stream (status every 10 ms, metrics every 100 ms). Frames go out on their
// schedule whether or not replies have come back, and each request is timed
// from its due time, so a stall also charges the requests queued behind it.
//
// Commit/cancel targets are chosen in setup by replaying each stream on a
// reference AdmissionShard, which also records every reply: the daemon's
// replies must match them byte for byte.
#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <optional>
#include <stdexcept>

#include "common.hpp"
#include "obs/trace.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/shard.hpp"
#include "workload/generator.hpp"
#include "workload/rng.hpp"

namespace perfbench {

namespace {

using rtdls::svc::MsgType;

constexpr std::size_t kShards = 2;
constexpr std::size_t kNodes = 16;
constexpr double kLatencyLimitUs = 1000.0;

/// One admission-stream operation with the reply it must receive.
struct Op {
  MsgType type = MsgType::kAdmitRequest;
  rtdls::svc::TaskRecord record;        ///< admit
  rtdls::cluster::TaskId target = 0;    ///< commit / cancel
  std::uint64_t reply_hash = 0;         ///< FNV-1a of the expected reply payload
};

struct Stream {
  std::vector<Op> ops;
};

struct Inputs {
  std::vector<Stream> streams;  ///< one per shard
  double generate_ns_per_task = 0.0;
  double shard_us[3] = {0.0, 0.0, 0.0};  ///< reference admit / commit / cancel
  std::size_t shard_ops[3] = {0, 0, 0};
  std::string digest;
};

std::uint64_t hash_bytes(const std::vector<std::uint8_t>& bytes) {
  Digest digest;
  digest.bytes(bytes.data(), bytes.size());
  return digest.value();
}

template <typename Message>
std::vector<std::uint8_t> payload_of(const Message& message) {
  rtdls::util::WireWriter writer;
  message.encode(writer);
  return writer.take();
}

rtdls::cluster::ClusterParams cluster_params() {
  rtdls::cluster::ClusterParams params;
  params.node_count = kNodes;
  return params;
}

/// Builds `count` operations for one shard and replays them on a reference
/// shard to fix commit/cancel targets and the expected replies.
Stream make_stream(std::size_t shard, std::size_t count, std::uint64_t seed, Inputs& inputs,
                   std::size_t& generated, double& generate_us) {
  rtdls::workload::WorkloadParams params;
  params.cluster = cluster_params();
  params.system_load = 1.0;
  params.dc_ratio = 2.0;
  params.seed = seed;
  params.stream = 100 + shard;
  params.total_time = static_cast<double>(count) * params.mean_interarrival();
  auto start = Clock::now();
  const std::vector<rtdls::workload::Task> tasks = rtdls::workload::generate_workload(params);
  generate_us += micros_between(start, Clock::now());
  generated += tasks.size();

  rtdls::svc::ShardConfig config;
  config.params = cluster_params();
  rtdls::svc::AdmissionShard reference("EDF-DLT", config);
  rtdls::workload::Xoshiro256StarStar rng(seed * 1000003 + shard);
  std::vector<rtdls::cluster::TaskId> accepted;  // most recent last
  Stream stream;
  stream.ops.reserve(count);
  std::size_t next_task = 0;
  Digest digest;
  while (stream.ops.size() < count && next_task < tasks.size()) {
    const double draw = rng.next_double();
    Op op;
    std::vector<std::uint8_t> reply;
    bool done = false;
    if (draw < 0.10) {
      // Commit (draw < 0.05) or cancel the most recently accepted task the
      // reference shard still holds; failed probes leave the shard as it was.
      op.type = draw < 0.05 ? MsgType::kCommitRequest : MsgType::kCancelRequest;
      while (!accepted.empty() && !done) {
        op.target = accepted.back();
        accepted.pop_back();
        try {
          start = Clock::now();
          if (op.type == MsgType::kCommitRequest) {
            reply = payload_of(reference.commit(op.target));
          } else {
            reply = payload_of(reference.cancel(op.target));
          }
          const int kind = op.type == MsgType::kCommitRequest ? 1 : 2;
          inputs.shard_us[kind] += micros_between(start, Clock::now());
          ++inputs.shard_ops[kind];
          done = true;
        } catch (const rtdls::svc::ShardError&) {
        }
      }
    }
    if (!done) {
      op = Op{};
      op.record = rtdls::svc::TaskRecord::from_task(tasks[next_task++]);
      start = Clock::now();
      const rtdls::svc::AdmitReply admit = reference.admit(op.record);
      inputs.shard_us[0] += micros_between(start, Clock::now());
      ++inputs.shard_ops[0];
      if (admit.accepted) accepted.push_back(op.record.id);
      reply = payload_of(admit);
    }
    op.reply_hash = hash_bytes(reply);
    digest.bytes(reply.data(), reply.size());
    stream.ops.push_back(op);
  }
  inputs.digest += digest.hex();
  return stream;
}

std::vector<std::uint8_t> encode_op(const Op& op, std::uint32_t shard, std::uint64_t id) {
  switch (op.type) {
    case MsgType::kAdmitRequest: {
      rtdls::svc::AdmitRequest request;
      request.shard = shard;
      request.task = op.record;
      return rtdls::svc::encode_message(op.type, id, request);
    }
    case MsgType::kCommitRequest: {
      rtdls::svc::CommitRequest request{shard, op.target};
      return rtdls::svc::encode_message(op.type, id, request);
    }
    default: {
      rtdls::svc::CancelRequest request{shard, op.target};
      return rtdls::svc::encode_message(op.type, id, request);
    }
  }
}

MsgType reply_type(MsgType request) {
  switch (request) {
    case MsgType::kAdmitRequest: return MsgType::kAdmitReply;
    case MsgType::kCommitRequest: return MsgType::kCommitReply;
    case MsgType::kCancelRequest: return MsgType::kCancelReply;
    case MsgType::kStatusRequest: return MsgType::kStatusReply;
    default: return MsgType::kMetricsReply;
  }
}

/// A measured phase: an offered admission rate (requests/s over both
/// shards) held for a duration.
struct Phase {
  const char* name;
  double rate;
  double seconds;
};

/// Rates, absolute (admission requests/s over both shards). `low` and
/// `high` sit near 20% and 60% of the daemon_storm closed-loop capacity
/// (~100k/s); on a quiet 4-core x86 box the open-loop admit p99 stays under
/// 1 ms up to ~240k/s. Low and high alternate in 0.25 s blocks so both see
/// the same machine conditions. The ladder runs twice and a rung counts as
/// met when either sweep meets it. The warm-up fills the daemon's lazily
/// grown state before anything is timed.
struct Plan {
  Phase warmup{"warmup", 60'000.0, 0.5};
  Phase low{"low", 20'000.0, 0.25};
  Phase high{"high", 60'000.0, 0.25};
  std::size_t blocks = 14;  ///< low/high block pairs
  std::vector<Phase> ladder = {{"rung", 60'000.0, 0.2}, {"rung", 120'000.0, 0.2},
                               {"rung", 180'000.0, 0.2}, {"rung", 240'000.0, 0.2}};
  std::size_t ladder_sweeps = 2;
};

/// The block pairs take ~60% of the run's seconds; warm-up and ladder are
/// fixed.
Plan plan_for(const Options& options) {
  Plan plan;
  plan.blocks = std::max<std::size_t>(1, static_cast<std::size_t>(1.2 * options.seconds + 0.5));
  if (options.smoke) {
    plan.warmup = {"warmup", 2'000.0, 0.05};
    plan.low = {"low", 2'000.0, 0.1};
    plan.high = {"high", 4'000.0, 0.1};
    plan.blocks = 1;
    plan.ladder = {{"rung", 4'000.0, 0.1}, {"rung", 6'000.0, 0.1}};
    plan.ladder_sweeps = 1;
  }
  return plan;
}

std::size_t ops_per_shard(const Plan& plan, bool trace) {
  const double blocks = static_cast<double>(plan.blocks) *
                        (plan.low.rate * plan.low.seconds + plan.high.rate * plan.high.seconds);
  double total = plan.warmup.rate * plan.warmup.seconds;
  if (trace) {
    total += 2.0 * blocks;  // untraced reference + traced
  } else {
    total += blocks;
    for (const Phase& rung : plan.ladder) {
      total += static_cast<double>(plan.ladder_sweeps) * rung.rate * rung.seconds;
    }
  }
  return static_cast<std::size_t>(total / static_cast<double>(kShards)) + 64;
}

Inputs make_inputs(const Options& options, const Plan& plan) {
  Inputs inputs;
  const std::size_t count = ops_per_shard(plan, options.trace);
  std::size_t generated = 0;
  double generate_us = 0.0;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    inputs.streams.push_back(make_stream(shard, count, options.seed, inputs, generated,
                                         generate_us));
  }
  inputs.generate_ns_per_task = generate_us * 1000.0 / static_cast<double>(generated);
  for (int kind = 0; kind < 3; ++kind) {
    if (inputs.shard_ops[kind] > 0) {
      inputs.shard_us[kind] /= static_cast<double>(inputs.shard_ops[kind]);
    }
  }
  if (options.plant == "wrong_reply") {
    // Self-test: expect a reply the daemon will not send.
    inputs.streams[0].ops[inputs.streams[0].ops.size() / 8].reply_hash ^= 1;
  }
  return inputs;
}

/// Nanoseconds per request round trip through the public codec:
/// encode_message, FrameDecoder, then the request type's decode.
double codec_ns(const Stream& stream) {
  const std::size_t count = std::min<std::size_t>(stream.ops.size(), 50'000);
  rtdls::svc::FrameDecoder decoder;
  rtdls::svc::Frame frame;
  std::size_t decoded = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    const std::vector<std::uint8_t> bytes = encode_op(stream.ops[i], 0, i + 1);
    decoder.feed(bytes.data(), bytes.size());
    while (decoder.next(frame) == rtdls::svc::FrameDecoder::Status::kFrame) {
      rtdls::util::WireReader reader(frame.payload);
      switch (frame.type) {
        case MsgType::kAdmitRequest: rtdls::svc::AdmitRequest::decode(reader); break;
        case MsgType::kCommitRequest: rtdls::svc::CommitRequest::decode(reader); break;
        default: rtdls::svc::CancelRequest::decode(reader); break;
      }
      reader.expect_done();
      ++decoded;
    }
  }
  const double ns = micros_between(start, Clock::now()) * 1000.0;
  if (decoded != count) throw std::runtime_error("codec replay lost frames");
  return ns / static_cast<double>(std::max<std::size_t>(1, count));
}

/// One client connection of the generator.
struct Connection {
  int fd = -1;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  rtdls::svc::FrameDecoder decoder;
  struct Pending {
    MsgType type;
    std::uint64_t request_id;
    std::uint64_t reply_hash;  ///< 0: not byte-checked (monitoring replies)
    Clock::time_point due;
    Clock::time_point sent;
    bool admit;
    bool measured;
  };
  std::deque<Pending> pending;
  std::uint64_t next_id = 1;

  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

void connect_to(Connection& c, const std::string& path) {
  c.fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (c.fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (path.size() >= sizeof(address.sun_path)) throw std::runtime_error("socket path too long");
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&address), sizeof address) != 0) {
    throw std::runtime_error("connect() failed: " + std::string(std::strerror(errno)));
  }
  ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
}

/// What one phase measured.
struct PhaseResult {
  std::vector<double> admit_us;    ///< due -> reply, admits, in due order
  std::vector<double> service_us;  ///< sent -> reply, admission-stream requests
  std::vector<double> lag_us;      ///< due -> sent, every request
  std::vector<double> scrape_us;   ///< sent -> reply, monitoring requests
  std::size_t requests = 0;        ///< admission-stream requests
  std::size_t rejected = 0;
  std::size_t admits = 0;
  std::size_t failed = 0;          ///< errors, timeouts, mismatched replies
  std::uint64_t queue_depth_max = 0;
  double wall_s = 0.0;
  rtdls::svc::StatusReply last_status;
};

class Generator {
 public:
  Generator(const std::string& socket_path, const Inputs& inputs)
      : inputs_(&inputs), cursor_(kShards, 0) {
    for (Connection& c : conns_) connect_to(c, socket_path);
    // Wake from ppoll on time rather than up to the default 50 us late.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  }

  PhaseResult run(const Phase& phase, Report& report) {
    PhaseResult result;
    const auto start = Clock::now();
    const auto period = std::chrono::duration<double>(static_cast<double>(kShards) / phase.rate);
    const std::size_t per_shard = static_cast<std::size_t>(phase.rate * phase.seconds) / kShards;
    std::vector<std::size_t> sent(kShards, 0);
    auto due_of = [&](std::size_t shard, std::size_t i) {
      // Shards are offset by half a period so the two streams interleave.
      return start + std::chrono::duration_cast<Clock::duration>(
                         period * (static_cast<double>(i) +
                                   static_cast<double>(shard) / static_cast<double>(kShards)));
    };
    // Reserve (and touch) the sample storage up front: growing it mid-phase
    // would stall the generator and charge the stall to the daemon.
    for (std::vector<double>* v : {&result.admit_us, &result.service_us, &result.lag_us}) {
      v->assign(kShards * per_shard + 1024, 0.0);
      v->clear();
    }
    result.scrape_us.reserve(static_cast<std::size_t>(phase.seconds * 100.0) + 16);
    std::size_t scrapes = 0;
    const auto scrape_period = std::chrono::milliseconds(10);
    const auto end_due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(phase.seconds));
    auto next_scrape = start;

    while (true) {
      auto now = Clock::now();
      // Send everything due.
      bool all_sent = true;
      for (std::size_t s = 0; s < kShards; ++s) {
        while (sent[s] < per_shard && due_of(s, sent[s]) <= now) {
          send_op(s, due_of(s, sent[s]), now);
          ++sent[s];
          ++result.requests;
        }
        if (sent[s] < per_shard) all_sent = false;
      }
      while (next_scrape <= now && next_scrape < end_due) {
        send_scrape(scrapes % 10 == 0 ? MsgType::kMetricsRequest : MsgType::kStatusRequest,
                    next_scrape, now);
        ++scrapes;
        next_scrape += scrape_period;
      }
      for (Connection& c : conns_) flush(c);
      if (all_sent && next_scrape >= end_due && pending_total() == 0) break;
      if (seconds_between(start, now) > phase.seconds + 20.0) {
        report.check(false, std::string("phase ") + phase.name + ": replies stopped arriving");
        result.failed += pending_total();
        break;
      }

      // Wait for replies or the next due time.
      auto next_due = end_due;
      for (std::size_t s = 0; s < kShards; ++s) {
        if (sent[s] < per_shard) next_due = std::min(next_due, due_of(s, sent[s]));
      }
      if (next_scrape < end_due) next_due = std::min(next_due, next_scrape);
      pollfd fds[3];
      for (std::size_t i = 0; i < 3; ++i) {
        fds[i] = pollfd{conns_[i].fd,
                        static_cast<short>(POLLIN | (conns_[i].out_pos < conns_[i].out.size()
                                                         ? POLLOUT
                                                         : 0)),
                        0};
      }
      // Sleep in ppoll only when the next send is far off; otherwise spin,
      // yielding the CPU on every idle turn, so the generator's own wake-up
      // latency stays out of the due-time measurements without starving a
      // daemon thread that wakes up on the same CPU.
      now = Clock::now();
      const auto slack = next_due - now - std::chrono::microseconds(200);
      const auto wait = slack > Clock::duration::zero()
                            ? std::min<Clock::duration>(slack, std::chrono::milliseconds(1))
                            : Clock::duration::zero();
      const timespec timeout{0, static_cast<long>(
                                    std::chrono::duration_cast<std::chrono::nanoseconds>(wait)
                                        .count())};
      const int ready = ::ppoll(fds, 3, &timeout, nullptr);
      if (ready < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
      if (ready == 0 && wait == Clock::duration::zero()) ::sched_yield();
      for (std::size_t i = 0; i < 3; ++i) {
        if (fds[i].revents & (POLLERR | POLLHUP)) {
          throw std::runtime_error("daemon closed a connection");
        }
        if (fds[i].revents & POLLIN) receive(conns_[i], result, report);
      }
    }
    result.wall_s = seconds_between(start, Clock::now());
    return result;
  }

 private:
  std::size_t pending_total() const {
    std::size_t total = 0;
    for (const Connection& c : conns_) total += c.pending.size();
    return total;
  }

  void send_op(std::size_t shard, Clock::time_point due, Clock::time_point now) {
    const Stream& stream = inputs_->streams[shard];
    if (cursor_[shard] >= stream.ops.size()) throw std::runtime_error("admission stream exhausted");
    const Op& op = stream.ops[cursor_[shard]++];
    Connection& c = conns_[shard];
    const std::uint64_t id = c.next_id++;
    const std::vector<std::uint8_t> bytes = encode_op(op, static_cast<std::uint32_t>(shard), id);
    c.out.insert(c.out.end(), bytes.begin(), bytes.end());
    c.pending.push_back(Connection::Pending{op.type, id, op.reply_hash, due, now,
                                            op.type == MsgType::kAdmitRequest, true});
  }

  void send_scrape(MsgType type, Clock::time_point due, Clock::time_point now) {
    Connection& c = conns_[kShards];
    const std::uint64_t id = c.next_id++;
    const std::vector<std::uint8_t> bytes =
        type == MsgType::kStatusRequest
            ? rtdls::svc::encode_message(type, id, rtdls::svc::StatusRequest{})
            : rtdls::svc::encode_message(type, id, rtdls::svc::MetricsRequest{});
    c.out.insert(c.out.end(), bytes.begin(), bytes.end());
    c.pending.push_back(Connection::Pending{type, id, 0, due, now, false, false});
  }

  static void flush(Connection& c) {
    while (c.out_pos < c.out.size()) {
      const ssize_t n = ::send(c.fd, c.out.data() + c.out_pos, c.out.size() - c.out_pos,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
        throw std::runtime_error("send failed: " + std::string(std::strerror(errno)));
      }
      c.out_pos += static_cast<std::size_t>(n);
    }
    c.out.clear();
    c.out_pos = 0;
  }

  /// Drains one connection, checking and timing every reply.
  void receive(Connection& c, PhaseResult& result, Report& report) {
    std::uint8_t buffer[65536];
    while (true) {
      const ssize_t n = ::recv(c.fd, buffer, sizeof buffer, MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
        throw std::runtime_error("recv failed");
      }
      if (n == 0) throw std::runtime_error("daemon closed a connection");
      c.decoder.feed(buffer, static_cast<std::size_t>(n));
      const auto now = Clock::now();
      rtdls::svc::Frame frame;
      while (true) {
        const auto status = c.decoder.next(frame);
        if (status == rtdls::svc::FrameDecoder::Status::kNeedMore) break;
        if (status == rtdls::svc::FrameDecoder::Status::kError || c.pending.empty()) {
          throw std::runtime_error("unparseable reply stream");
        }
        const Connection::Pending p = c.pending.front();
        c.pending.pop_front();
        const bool ok = frame.request_id == p.request_id && frame.type == reply_type(p.type) &&
                        (p.reply_hash == 0 || hash_bytes(frame.payload) == p.reply_hash);
        const double from_due = micros_between(p.due, now);
        const double service = micros_between(p.sent, now);
        result.lag_us.push_back(micros_between(p.due, p.sent));
        if (!ok) {
          ++result.failed;
          report.check(false, "reply " + std::to_string(p.request_id) + " (type " +
                                  std::to_string(static_cast<int>(frame.type)) +
                                  ") differs from the reference shard's");
        }
        if (p.measured) {
          result.service_us.push_back(service);
          if (p.admit) {
            ++result.admits;
            // A failed request misses any latency limit.
            result.admit_us.push_back(ok ? from_due : 1e9);
            if (ok) {
              rtdls::util::WireReader reader(frame.payload);
              if (!rtdls::svc::AdmitReply::decode(reader).accepted) ++result.rejected;
            }
          }
        } else {
          result.scrape_us.push_back(service);
          if (ok && frame.type == MsgType::kStatusReply) {
            rtdls::util::WireReader reader(frame.payload);
            result.last_status = rtdls::svc::StatusReply::decode(reader);
            result.queue_depth_max =
                std::max(result.queue_depth_max, result.last_status.queue_depth);
          }
        }
      }
    }
  }

  const Inputs* inputs_;
  std::vector<std::size_t> cursor_;
  Connection conns_[kShards + 1];
};

std::uint64_t committed(const rtdls::svc::StatusReply& status) {
  std::uint64_t total = 0;
  for (const auto& shard : status.shards) total += shard.committed;
  return total;
}

/// Low and high blocks of one stretch of the run, in time order.
struct Blocks {
  std::vector<PhaseResult> low;
  std::vector<PhaseResult> high;
};

Blocks run_blocks(Generator& generator, const Plan& plan, Report& report) {
  Blocks blocks;
  for (std::size_t b = 0; b < plan.blocks; ++b) {
    blocks.low.push_back(generator.run(plan.low, report));
    blocks.high.push_back(generator.run(plan.high, report));
  }
  for (const auto* series : {&blocks.low, &blocks.high}) {
    for (const PhaseResult& r : *series) report.attempted(r.requests + r.scrape_us.size());
  }
  return blocks;
}

/// One member of every block, concatenated in time order.
std::vector<double> pooled(const std::vector<PhaseResult>& blocks,
                           std::vector<double> PhaseResult::* member) {
  std::vector<double> out;
  for (const PhaseResult& r : blocks) out.insert(out.end(), (r.*member).begin(), (r.*member).end());
  return out;
}

/// First quartile over blocks of each block's q-quantile of `member`: the
/// latency of the quieter blocks. Host CPU steal on a shared machine only
/// ever adds latency, in bursts that can cover most of a run; a slower
/// daemon is slower in every block.
double block_quantile(const std::vector<PhaseResult>& blocks,
                      std::vector<double> PhaseResult::* member, double q) {
  std::vector<double> per_block;
  for (const PhaseResult& r : blocks) per_block.push_back(quantile(r.*member, q));
  return quantile(per_block, 0.25);
}

std::size_t sum(const std::vector<PhaseResult>& blocks, std::size_t PhaseResult::* member) {
  std::size_t total = 0;
  for (const PhaseResult& r : blocks) total += r.*member;
  return total;
}

void report_daemon_layers(Report& report, const std::vector<PhaseResult>& low,
                          const std::vector<PhaseResult>& high) {
  double p50 = 0.0;
  double p99 = 0.0;
  const rtdls::svc::StatusReply& status = high.back().last_status;
  for (const auto& latency : status.shard_latency) {
    p50 = std::max(p50, latency.p50_us);
    p99 = std::max(p99, latency.p99_us);
  }
  std::vector<PhaseResult> all = low;
  all.insert(all.end(), high.begin(), high.end());
  const std::size_t served = sum(all, &PhaseResult::requests);
  report.metric("svc.server_us.p50", p50, "us", served);
  report.metric("svc.server_us.p99", p99, "us", served);
  const std::vector<double> service = pooled(all, &PhaseResult::service_us);
  report.metric("svc.transport_us", quantile(service, 0.5) - p50, "us", service.size());
  const std::vector<double> scrapes = pooled(all, &PhaseResult::scrape_us);
  report.metric("svc.scrape_us", quantile(scrapes, 0.5), "us", scrapes.size());
  std::uint64_t depth = 0;
  for (const PhaseResult& r : all) depth = std::max(depth, r.queue_depth_max);
  report.metric("svc.queue_depth_max", static_cast<double>(depth), "count", scrapes.size());
  std::uint64_t session_bytes = 0;
  for (const auto& shard : status.shards) session_bytes += shard.session_bytes;
  report.metric("svc.session_bytes_end", static_cast<double>(session_bytes), "bytes", 1);
  const std::vector<double> lag = pooled(all, &PhaseResult::lag_us);
  report.metric("loadgen.lag_p99_us", quantile(lag, 0.99), "us", lag.size());
}

/// Walks the rate ladder `plan.ladder_sweeps` times; returns the achieved
/// rate of the highest rung such that it and every rung below it met the
/// limit in some sweep (0 when the first rung never does).
double walk_ladder(Generator& generator, const Plan& plan, Report& report) {
  std::vector<double> achieved(plan.ladder.size(), 0.0);
  for (std::size_t sweep = 0; sweep < plan.ladder_sweeps; ++sweep) {
    for (std::size_t k = 0; k < plan.ladder.size(); ++k) {
      const Phase& rung = plan.ladder[k];
      const PhaseResult r = generator.run(rung, report);
      report.attempted(r.requests + r.scrape_us.size());
      const double p99 = windowed_quantile(r.admit_us, 0.99, 2000);
      // Latency is timed from the due time, so a growing backlog shows as
      // latency rising through the rung: the last tenth must meet the limit
      // too.
      const std::vector<double> tail(r.admit_us.end() - static_cast<long>(r.admit_us.size() / 10),
                                     r.admit_us.end());
      const double tail_p99 = quantile(tail, 0.99);
      const bool met = r.failed == 0 && p99 <= kLatencyLimitUs && tail_p99 <= kLatencyLimitUs;
      const double rate = static_cast<double>(r.requests) / r.wall_s;
      std::printf("ladder sweep %zu rung %.0f req/s: admit p99 %.1f us (last tenth %.1f us), "
                  "achieved %.0f req/s -> %s\n",
                  sweep, rung.rate, p99, tail_p99, rate, met ? "met" : "missed");
      if (!met) break;
      achieved[k] = std::max(achieved[k], rate);
    }
  }
  double max_rate = 0.0;
  for (double rate : achieved) {
    if (rate == 0.0) break;
    max_rate = rate;
  }
  return max_rate;
}

/// Gives the generator a CPU of its own when the process may use at least
/// four: the daemon's threads, created after construction, inherit every
/// allowed CPU but the first, and pin_generator() then moves the calling
/// (generator) thread onto that first CPU. Fixed placement keeps runs
/// comparable, and the spinning generator never delays a daemon thread.
class CpuSplit {
 public:
  CpuSplit() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0 || CPU_COUNT(&allowed) < 4) return;
    cpu_set_t daemon = allowed;
    CPU_ZERO(&generator_);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) {
        CPU_SET(cpu, &generator_);
        CPU_CLR(cpu, &daemon);
        break;
      }
    }
    split_ = ::sched_setaffinity(0, sizeof daemon, &daemon) == 0;
  }

  void pin_generator() const {
    if (split_) ::sched_setaffinity(0, sizeof generator_, &generator_);
  }

 private:
  cpu_set_t generator_{};
  bool split_ = false;
};

/// A started daemon with the generator connected and warmed up. Members
/// are destroyed in reverse order: the generator's connections close
/// before the daemon stops.
class Session {
 public:
  Session(const Options& options, const Inputs& inputs, const Plan& plan, Report& report)
      : daemon_(config_for(options)) {
    daemon_.start();
    cpus_.pin_generator();
    generator_.emplace(daemon_.config().socket_path, inputs);
    const PhaseResult warmup = generator_->run(plan.warmup, report);
    report.attempted(warmup.requests + warmup.scrape_us.size());
  }

  Generator& generator() { return *generator_; }

 private:
  static rtdls::svc::DaemonConfig config_for(const Options& options) {
    rtdls::svc::DaemonConfig config;
    config.socket_path = options.workdir + "/rtdlsd-" + std::to_string(::getpid()) + ".sock";
    config.algorithm = "EDF-DLT";
    config.params = cluster_params();
    config.shards = kShards;
    config.workers = 3;
    return config;
  }

  CpuSplit cpus_;  // before the daemon: its threads inherit the split
  rtdls::svc::Daemon daemon_;
  std::optional<Generator> generator_;
};

/// The traced measurement: untraced blocks as the reference, then the same
/// blocks with the recorder armed. Reports the svc-layer metrics, plus the
/// sched/cluster/obs ones when `all_layers`.
void report_traced_session(Session& session, const Plan& plan, const Inputs& inputs,
                           const Options& options, Report& report, bool all_layers) {
  report.metric("svc.shard_admit_us", inputs.shard_us[0], "us", inputs.shard_ops[0]);
  report.metric("svc.shard_commit_us", inputs.shard_us[1], "us", inputs.shard_ops[1]);
  report.metric("svc.shard_cancel_us", inputs.shard_us[2], "us", inputs.shard_ops[2]);
  report.metric("svc.codec_ns", codec_ns(inputs.streams[0]), "ns",
                std::min<std::size_t>(inputs.streams[0].ops.size(), 50'000));
  const Blocks untraced = run_blocks(session.generator(), plan, report);
  report_daemon_layers(report, untraced.low, untraced.high);

  auto& recorder = rtdls::obs::TraceRecorder::instance();
  recorder.clear();
  recorder.start(4 * (sum(untraced.low, &PhaseResult::requests) +
                      sum(untraced.high, &PhaseResult::requests)) +
                 65536);
  const RegistryView before = RegistryView::take();
  const auto start = Clock::now();
  const Blocks traced = run_blocks(session.generator(), plan, report);
  const double traced_s = seconds_between(start, Clock::now());
  const RegistryView after = RegistryView::take();
  recorder.stop();
  const std::size_t dropped = recorder.dropped();
  report.check(dropped == 0, "trace recorder dropped events; the traced run is invalid");
  const TraceSummary trace = collect_trace(options.workdir + "/daemon_open_loop-trace.json");
  report.metric("svc.lock_wait_us.p50", quantile(trace.lock_wait_us, 0.5), "us",
                trace.lock_wait_us.size());
  report.metric("svc.lock_wait_us.p99", quantile(trace.lock_wait_us, 0.99), "us",
                trace.lock_wait_us.size());
  if (!all_layers) return;

  report_obs_layer(report, before, after, traced_s);
  report.metric("workload.generate_ns_per_task", inputs.generate_ns_per_task, "ns",
                inputs.streams[0].ops.size() * kShards);
  report.metric("obs.trace_overhead",
                quantile(pooled(traced.high, &PhaseResult::admit_us), 0.5) /
                    std::max(1e-9, quantile(pooled(untraced.high, &PhaseResult::admit_us), 0.5)),
                "ratio", sum(traced.high, &PhaseResult::admits));
  const double admits = std::max<double>(
      1.0, static_cast<double>(sum(traced.low, &PhaseResult::admits) +
                               sum(traced.high, &PhaseResult::admits)));
  auto per_admit = [&](const char* counter) {
    return static_cast<double>(after.counter(counter) - before.counter(counter)) / admits;
  };
  report.metric("sched.session_rebuilds_per_arrival",
                per_admit("rtdls_admission_session_rebuilds_total"), "ratio",
                static_cast<std::size_t>(admits));
  report.metric("sched.delta_replays_per_arrival",
                per_admit("rtdls_admission_delta_replays_total"), "ratio",
                static_cast<std::size_t>(admits));
  const auto [count_after, sum_after] = after.histogram("rtdls_index_commit_depth");
  const auto [count_before, sum_before] = before.histogram("rtdls_index_commit_depth");
  const double records = static_cast<double>(count_after - count_before);
  const double commits = static_cast<double>(committed(traced.high.back().last_status) -
                                             committed(untraced.high.back().last_status));
  report.metric("cluster.index_commit_depth_mean",
                records > 0.0 ? (sum_after - sum_before) / records : 0.0, "count",
                static_cast<std::size_t>(records));
  report.metric("cluster.index_records_per_commit", commits > 0.0 ? records / commits : 0.0,
                "ratio", static_cast<std::size_t>(commits));
}

}  // namespace

void run_service_layers(const Options& options, Report& report) {
  Options traced = options;
  traced.trace = true;
  Plan plan = plan_for(traced);
  if (!options.smoke) plan.blocks = 4;
  const Inputs inputs = make_inputs(traced, plan);
  Session session(traced, inputs, plan, report);
  report_traced_session(session, plan, inputs, traced, report, false);
}

void run_daemon_open_loop(const Options& options, Report& report) {
  const Plan plan = plan_for(options);
  const Inputs inputs =
      options.trace ? make_inputs(options, plan)
                    : repeated_setup(3, report, [&] { return make_inputs(options, plan); });
  report.set_digest(inputs.digest);
  Session session(options, inputs, plan, report);
  if (options.trace) {
    report_traced_session(session, plan, inputs, options, report, true);
    return;
  }

  const Blocks blocks = run_blocks(session.generator(), plan, report);
  const double max_rate = walk_ladder(session.generator(), plan, report);
  const double rss_mb = peak_rss_mb();

  const std::vector<PhaseResult>& low = blocks.low;
  const std::vector<PhaseResult>& high = blocks.high;
  std::vector<PhaseResult> all = low;
  all.insert(all.end(), high.begin(), high.end());
  const std::size_t requests = sum(all, &PhaseResult::requests);
  double wall_s = 0.0;
  for (const PhaseResult& r : all) wall_s += r.wall_s;
  const std::vector<double> service = pooled(all, &PhaseResult::service_us);
  const std::size_t admits = sum(all, &PhaseResult::admits);
  report.metric("tasks_per_s", static_cast<double>(requests) / wall_s, "1/s", requests);
  report.metric("arrival_p50_us", block_quantile(all, &PhaseResult::service_us, 0.5), "us",
                service.size());
  report.metric("arrival_p99_us", block_quantile(all, &PhaseResult::service_us, 0.99), "us",
                service.size());
  const std::vector<double> high_admits = pooled(high, &PhaseResult::admit_us);
  report.metric("history_slowdown", tenth_ratio(high_admits), "ratio", high_admits.size());
  report.metric("peak_rss_mb", rss_mb, "MB", 1);
  report.metric("reject_ratio",
                static_cast<double>(sum(all, &PhaseResult::rejected)) /
                    static_cast<double>(std::max<std::size_t>(1, admits)),
                "ratio", admits);
  const std::vector<double> low_admits = pooled(low, &PhaseResult::admit_us);
  report.metric("admit_p50_us.low", block_quantile(low, &PhaseResult::admit_us, 0.5), "us",
                low_admits.size());
  report.metric("admit_p99_us.low", block_quantile(low, &PhaseResult::admit_us, 0.99), "us",
                low_admits.size());
  report.metric("admit_p50_us.high", block_quantile(high, &PhaseResult::admit_us, 0.5), "us",
                high_admits.size());
  report.metric("admit_p99_us.high", block_quantile(high, &PhaseResult::admit_us, 0.99), "us",
                high_admits.size());
  report.metric("max_rate_rps", max_rate, "1/s", plan.ladder.size() * plan.ladder_sweeps);
  report.metric("success_ratio",
                1.0 - static_cast<double>(report.failed_count()) /
                          static_cast<double>(std::max<std::size_t>(1, report.attempted_count())),
                "ratio", report.attempted_count());
}

}  // namespace perfbench
