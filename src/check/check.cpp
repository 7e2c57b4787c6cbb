#include "check/check.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <utility>

#include "util/error.hpp"

namespace dpml::check {

using coll::coll_kind_name;
using coll::CollKind;
using simmpi::ConstBytes;
using simmpi::Dtype;
using simmpi::MutBytes;

const char* check_level_name(CheckLevel level) {
  switch (level) {
    case CheckLevel::off: return "off";
    case CheckLevel::basic: return "basic";
    case CheckLevel::strict: return "strict";
  }
  return "?";
}

CheckLevel check_level_by_name(const std::string& name) {
  for (CheckLevel l :
       {CheckLevel::off, CheckLevel::basic, CheckLevel::strict}) {
    if (name == check_level_name(l)) return l;
  }
  DPML_CHECK_MSG(false, "unknown check level '" + name +
                            "'; valid: off, basic, strict");
  return CheckLevel::off;
}


std::string Violation::format() const {
  std::string s = "[" + rule + "]";
  if (rank >= 0) s += " rank " + std::to_string(rank);
  if (!context.empty()) s += " in " + context;
  s += ": " + message;
  return s;
}

namespace {

std::string build_report(const std::vector<Violation>& vs) {
  std::string s = "simcheck: " + std::to_string(vs.size()) +
                  " violation(s) detected\n";
  for (const Violation& v : vs) s += "  " + v.format() + "\n";
  return s;
}

// Render element `idx` of a raw buffer for mismatch messages.
std::string format_element(Dtype dt, ConstBytes buf, std::size_t idx) {
  const std::size_t esize = simmpi::dtype_size(dt);
  if ((idx + 1) * esize > buf.size()) return "?";
  const std::byte* p = buf.data() + idx * esize;
  std::ostringstream os;
  switch (dt) {
    case Dtype::f32: {
      float v;
      std::memcpy(&v, p, sizeof v);
      os << v;
      break;
    }
    case Dtype::f64: {
      double v;
      std::memcpy(&v, p, sizeof v);
      os << v;
      break;
    }
    case Dtype::i32: {
      std::int32_t v;
      std::memcpy(&v, p, sizeof v);
      os << v;
      break;
    }
    case Dtype::i64: {
      std::int64_t v;
      std::memcpy(&v, p, sizeof v);
      os << v;
      break;
    }
    case Dtype::u8: {
      os << static_cast<int>(std::to_integer<unsigned>(p[0]));
      break;
    }
  }
  return os.str();
}

}  // namespace

CheckError::CheckError(std::string report, std::vector<Violation> violations,
                       std::string deadlock_json)
    : std::runtime_error(std::move(report)),
      violations_(std::move(violations)),
      deadlock_json_(std::move(deadlock_json)) {}

std::optional<ResultMismatch> reference_mismatch(
    const CollCall& call, std::span<const ConstBytes> inputs,
    std::span<const ConstBytes> outputs) {
  const int p = call.parties;
  DPML_CHECK(inputs.size() == static_cast<std::size_t>(p) &&
             outputs.size() == static_cast<std::size_t>(p));
  const std::size_t esize = simmpi::dtype_size(call.dt);
  const std::size_t block = call.count * esize;
  for (int cr = 0; cr < p; ++cr) {
    DPML_CHECK_MSG(inputs[static_cast<std::size_t>(cr)].size() ==
                       coll::input_blocks(call.kind, p, cr == call.root) *
                           block,
                   "reference input of comm rank " + std::to_string(cr) +
                       " does not span its extent");
  }
  const auto input = [&](int cr) {
    return inputs[static_cast<std::size_t>(cr)];
  };
  const coll::KindContract c = coll::contract_of(call.kind);
  std::vector<std::byte> fold;
  if (c.reduces) {
    fold.assign(input(0).begin(), input(0).end());
    for (int cr = 1; cr < p; ++cr) {
      call.op.apply(call.dt, fold.size() / esize, MutBytes{fold}, input(cr));
    }
  }
  // Block b of comm rank cr's result.
  const auto expected = [&](int cr, std::size_t b) -> ConstBytes {
    const std::size_t mine = static_cast<std::size_t>(cr) * block;
    switch (call.kind) {
      case CollKind::allreduce:
      case CollKind::reduce: return fold;
      case CollKind::reduce_scatter:
        return ConstBytes{fold}.subspan(mine, block);
      case CollKind::bcast: return input(call.root);
      case CollKind::scatter: return input(call.root).subspan(mine, block);
      case CollKind::allgather:
      case CollKind::gather: return input(static_cast<int>(b));
      case CollKind::alltoall:
        return input(static_cast<int>(b)).subspan(mine, block);
      case CollKind::barrier: break;
    }
    return {};
  };
  const std::size_t blocks = coll::extent_blocks(c.recv, p, true);
  for (int cr = 0; cr < p; ++cr) {
    if (!coll::holds_result(call.kind, cr == call.root)) continue;
    const ConstBytes out = outputs[static_cast<std::size_t>(cr)];
    const auto mismatch = [&](std::size_t element, ConstBytes want,
                              std::size_t want_element) {
      return ResultMismatch{cr, element, format_element(call.dt, out, element),
                            format_element(call.dt, want, want_element)};
    };
    for (std::size_t b = 0; b < blocks; ++b) {
      const ConstBytes want = expected(cr, b);
      const std::size_t off = std::min(b * block, out.size());
      const ConstBytes got =
          out.subspan(off, std::min(block, out.size() - off));
      const auto diff =
          std::mismatch(got.begin(), got.end(), want.begin(), want.end());
      if (diff.first == got.end() && diff.second == want.end()) continue;
      const std::size_t at =
          static_cast<std::size_t>(diff.second - want.begin()) / esize;
      return mismatch(b * call.count + at, want, at);
    }
    if (out.size() > blocks * block) {
      return mismatch(blocks * call.count, {}, 0);
    }
  }
  return std::nullopt;
}

std::string deadlock_report_json(const std::vector<BlockedEdge>& edges) {
  std::ostringstream os;
  os << "{\"blocked\": [";
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const BlockedEdge& e = edges[i];
    if (i > 0) os << ", ";
    os << "{\"rank\": " << e.rank << ", \"ctx\": " << e.ctx
       << ", \"src\": " << e.src << ", \"tag\": " << e.tag
       << ", \"capacity\": " << e.capacity << "}";
  }
  os << "], \"cycle\": [";
  // Follow the rank -> awaited-rank chain (each blocked rank's first
  // concrete-source edge). A wildcard source (-1) ends the chain: that rank
  // could be satisfied by anyone, so it anchors no cycle edge.
  std::map<int, int> waits_on;
  for (const BlockedEdge& e : edges) {
    if (e.src >= 0 && waits_on.find(e.rank) == waits_on.end()) {
      waits_on.emplace(e.rank, e.src);
    }
  }
  std::vector<int> cycle;
  for (const auto& [start, first] : waits_on) {
    (void)first;
    std::vector<int> path;
    std::map<int, std::size_t> pos;
    int cur = start;
    while (waits_on.find(cur) != waits_on.end() &&
           pos.find(cur) == pos.end()) {
      pos.emplace(cur, path.size());
      path.push_back(cur);
      cur = waits_on.at(cur);
    }
    if (pos.find(cur) != pos.end()) {
      cycle.assign(path.begin() + static_cast<std::ptrdiff_t>(pos.at(cur)),
                   path.end());
      break;  // waits_on is sorted: the first cycle found is canonical
    }
  }
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    if (i > 0) os << ", ";
    os << cycle[i];
  }
  os << "]}";
  return os.str();
}

BufferLease& BufferLease::operator=(BufferLease&& o) noexcept {
  if (this != &o) {
    release();
    ck_ = o.ck_;
    rank_ = o.rank_;
    id_ = o.id_;
    o.ck_ = nullptr;
    o.id_ = -1;
  }
  return *this;
}

void BufferLease::release() {
  if (ck_ != nullptr && id_ >= 0) ck_->release_buffer(rank_, id_);
  ck_ = nullptr;
  id_ = -1;
}

Checker::Checker(CheckLevel level, bool with_data, int world_size)
    : level_(level), with_data_(with_data), world_size_(world_size) {
  DPML_CHECK(level != CheckLevel::off && world_size >= 1);
  live_.resize(static_cast<std::size_t>(world_size));
  open_.resize(static_cast<std::size_t>(world_size));
}

void Checker::fail(Violation v) const {
  std::vector<Violation> vs = deferred_;
  vs.push_back(std::move(v));
  // Build the report before handing `vs` to the exception: argument
  // evaluation order is unspecified, and a move-first order would report
  // from an emptied vector.
  std::string report = build_report(vs);
  throw CheckError(std::move(report), std::move(vs));
}

std::string Checker::label_of(int rank) const {
  const auto& stack = open_[static_cast<std::size_t>(rank)];
  if (stack.empty()) return "";
  const OpenColl& oc = stack.back();
  auto it = records_.find({oc.ctx, oc.seq});
  return it == records_.end() ? "" : it->second.label;
}

int Checker::current_dtype(int rank) const {
  const auto& stack = open_[static_cast<std::size_t>(rank)];
  return stack.empty() ? -1 : stack.back().dtype;
}

void Checker::on_send(int src, int dst, int ctx, int tag, std::size_t bytes) {
  (void)dst;
  const int dt = current_dtype(src);
  if (dt < 0) return;
  const std::size_t esize = simmpi::dtype_size(static_cast<Dtype>(dt));
  if (bytes % esize != 0) {
    fail(Violation{
        "count-mismatch", src, label_of(src),
        "send of " + std::to_string(bytes) + " bytes (ctx=" +
            std::to_string(ctx) + ", tag=" + std::to_string(tag) +
            ") is not a whole number of " +
            simmpi::dtype_name(static_cast<Dtype>(dt)) + " elements"});
  }
}

BufferLease Checker::acquire(int rank, const std::byte* data, std::size_t size,
                             bool writable, const char* what, int ctx,
                             int tag) {
  if (data == nullptr || size == 0) return BufferLease{};
  auto& bufs = live_[static_cast<std::size_t>(rank)];
  const std::byte* lo = data;
  const std::byte* hi = data + size;
  for (const LiveBuffer& b : bufs) {
    if (!b.active) continue;
    if (lo < b.hi && b.lo < hi && (writable || b.writable)) {
      fail(Violation{
          "buffer-overlap", rank, label_of(rank),
          std::string(what) + " buffer (ctx=" + std::to_string(ctx) +
              ", tag=" + std::to_string(tag) + ", " + std::to_string(size) +
              " bytes) overlaps a live " + b.what + " buffer (ctx=" +
              std::to_string(b.ctx) + ", tag=" + std::to_string(b.tag) +
              "); MPI forbids reusing a buffer while an operation on it is "
              "in flight"});
    }
  }
  int id = -1;
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    if (!bufs[i].active) {
      id = static_cast<int>(i);
      break;
    }
  }
  if (id < 0) {
    id = static_cast<int>(bufs.size());
    bufs.emplace_back();
  }
  bufs[static_cast<std::size_t>(id)] =
      LiveBuffer{lo, hi, writable, what, ctx, tag, true};
  return BufferLease{this, rank, id};
}

BufferLease Checker::acquire_read(int rank, ConstBytes span, const char* what,
                                  int ctx, int tag) {
  return acquire(rank, span.data(), span.size(), /*writable=*/false, what, ctx,
                 tag);
}

BufferLease Checker::acquire_write(int rank, MutBytes span, const char* what,
                                   int ctx, int tag) {
  return acquire(rank, span.data(), span.size(), /*writable=*/true, what, ctx,
                 tag);
}

void Checker::release_buffer(int rank, int id) {
  live_[static_cast<std::size_t>(rank)][static_cast<std::size_t>(id)].active =
      false;
}

void Checker::on_recv_complete(int rank, int ctx, const simmpi::PostedRecv& pr) {
  const int my_dt = current_dtype(rank);
  if (my_dt >= 0 && pr.recv_dtype >= 0 && pr.recv_dtype != my_dt) {
    fail(Violation{
        "dtype-mismatch", rank, label_of(rank),
        "received a message sent as " +
            std::string(simmpi::dtype_name(static_cast<Dtype>(pr.recv_dtype))) +
            " from rank " + std::to_string(pr.recv_src) + " (ctx=" +
            std::to_string(ctx) + ", tag=" + std::to_string(pr.recv_tag) +
            ") while reducing " +
            simmpi::dtype_name(static_cast<Dtype>(my_dt)) + " elements"});
  }
  if (my_dt >= 0) {
    const std::size_t esize = simmpi::dtype_size(static_cast<Dtype>(my_dt));
    if (pr.recv_bytes % esize != 0) {
      fail(Violation{
          "count-mismatch", rank, label_of(rank),
          "received " + std::to_string(pr.recv_bytes) + " bytes from rank " +
              std::to_string(pr.recv_src) + " (ctx=" + std::to_string(ctx) +
              ", tag=" + std::to_string(pr.recv_tag) +
              "), not a whole number of " +
              simmpi::dtype_name(static_cast<Dtype>(my_dt)) + " elements"});
    }
  }
  if (strict() && pr.capacity != pr.recv_bytes) {
    fail(Violation{
        "capacity-mismatch", rank, label_of(rank),
        "posted a receive of " + std::to_string(pr.capacity) +
            " bytes but rank " + std::to_string(pr.recv_src) + " sent " +
            std::to_string(pr.recv_bytes) + " (ctx=" + std::to_string(ctx) +
            ", tag=" + std::to_string(pr.recv_tag) +
            "); strict mode requires exact counts"});
  }
}

std::uint64_t Checker::begin_collective(CollKind op_kind, int world_rank,
                                        int ctx, const std::string& label,
                                        int parties, int comm_rank, int root,
                                        std::size_t count, Dtype dt,
                                        const simmpi::Op& op,
                                        ConstBytes input) {
  DPML_CHECK(world_rank >= 0 && world_rank < world_size_);
  DPML_CHECK(comm_rank >= 0 && comm_rank < parties);
  const std::uint64_t seq = enter_seq_[{ctx, world_rank}]++;
  CollRecord& rec = records_[{ctx, seq}];
  const std::string where =
      std::string(coll_kind_name(op_kind)) + "/" + label;
  const CollCall& was = rec.call;
  if (rec.entered == 0) {
    rec.call = CollCall{op_kind, parties, root, count, dt, op};
    rec.label = label;
    rec.party.resize(static_cast<std::size_t>(parties));
  } else if (was.kind != op_kind || rec.label != label ||
             was.parties != parties || was.root != root ||
             was.count != count || was.dt != dt) {
    fail(Violation{
        "collective-argument-mismatch", world_rank, where,
        "entered invocation #" + std::to_string(seq) + " on context " +
            std::to_string(ctx) + " with (kind=" + coll_kind_name(op_kind) +
            ", label=" + label + ", parties=" + std::to_string(parties) +
            ", root=" + std::to_string(root) + ", count=" +
            std::to_string(count) + ", dtype=" + simmpi::dtype_name(dt) +
            ") but an earlier rank entered with (kind=" +
            coll_kind_name(was.kind) + ", label=" +
            rec.label + ", parties=" + std::to_string(was.parties) +
            ", root=" + std::to_string(was.root) + ", count=" +
            std::to_string(was.count) + ", dtype=" +
            simmpi::dtype_name(was.dt) + "); SPMD ranks must agree"});
  }
  Party& p = rec.party[static_cast<std::size_t>(comm_rank)];
  if (p.entered) {
    fail(Violation{"collective-reentry", world_rank, where,
                   "comm rank " + std::to_string(comm_rank) +
                       " entered invocation #" + std::to_string(seq) +
                       " on context " + std::to_string(ctx) + " twice"});
  }
  p.entered = true;
  p.world_rank = world_rank;
  if (with_data_ && !input.empty()) {
    p.input.assign(input.begin(), input.end());
  }
  rec.entered += 1;

  // Annotate this rank's p2p traffic with the reduction dtype; the pure
  // data-movement kinds (bcast, alltoall, allgather, gather, scatter) move
  // byte ranges that need not be element-aligned, so they stay unannotated.
  const bool reduction = coll::contract_of(op_kind).reduces;
  open_[static_cast<std::size_t>(world_rank)].push_back(
      OpenColl{ctx, seq, reduction ? static_cast<int>(dt) : -1});
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(ctx)) << 32) |
         (seq & 0xffffffffull);
}

void Checker::end_collective(int world_rank, std::uint64_t token,
                             ConstBytes output) {
  const int ctx = static_cast<int>(token >> 32);
  const std::uint64_t seq = token & 0xffffffffull;
  auto& stack = open_[static_cast<std::size_t>(world_rank)];
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (it->ctx == ctx && it->seq == seq) {
      stack.erase(std::next(it).base());
      break;
    }
  }
  auto rit = records_.find({ctx, seq});
  DPML_CHECK_MSG(rit != records_.end(),
                 "end_collective without matching begin");
  CollRecord& rec = rit->second;
  Party* party = nullptr;
  for (Party& p : rec.party) {
    if (p.world_rank == world_rank && p.entered && !p.exited) {
      party = &p;
      break;
    }
  }
  DPML_CHECK_MSG(party != nullptr, "end_collective from a non-member rank");
  party->exited = true;
  if (with_data_ && !output.empty()) {
    party->output.assign(output.begin(), output.end());
  }
  rec.exited += 1;
  if (rec.exited == rec.call.parties) {
    verify_collective(rec);
    records_.erase(rit);
  }
}

void Checker::verify_collective(const CollRecord& rec) {
  const CollCall& call = rec.call;
  // Barrier has arrival semantics only (count == 0); nothing to verify.
  if (!with_data_ || call.count == 0) return;
  const std::size_t block = call.count * simmpi::dtype_size(call.dt);
  const std::string where =
      std::string(coll_kind_name(call.kind)) + "/" + rec.label;
  std::vector<ConstBytes> inputs(rec.party.size());
  std::vector<ConstBytes> outputs(rec.party.size());
  for (int cr = 0; cr < call.parties; ++cr) {
    const Party& p = rec.party[static_cast<std::size_t>(cr)];
    outputs[static_cast<std::size_t>(cr)] = p.output;
    const std::size_t expect_in =
        coll::input_blocks(call.kind, call.parties, cr == call.root) * block;
    if (expect_in == 0) continue;  // this rank contributes no data
    if (p.input.empty()) return;  // metadata-only participant: nothing to fold
    if (p.input.size() != expect_in) {
      fail(Violation{"collective-buffer-size", p.world_rank, where,
                     "input buffer holds " + std::to_string(p.input.size()) +
                         " bytes; expected " + std::to_string(expect_in)});
    }
    inputs[static_cast<std::size_t>(cr)] = p.input;
  }
  const std::optional<ResultMismatch> m =
      reference_mismatch(call, inputs, outputs);
  if (!m) return;
  fail(Violation{
      "result-mismatch",
      rec.party[static_cast<std::size_t>(m->comm_rank)].world_rank, where,
      "comm rank " + std::to_string(m->comm_rank) +
          " finished with a wrong result: element " +
          std::to_string(m->element) + " (" + simmpi::dtype_name(call.dt) +
          ", op=" + call.op.name() + ") is " + m->got +
          ", serial reference says " + m->expected});
}

void Checker::note_endpoint_state(int rank, const simmpi::Matcher& matcher) {
  for (const simmpi::Envelope& env : matcher.unexpected()) {
    deferred_.push_back(Violation{
        env.rendezvous ? "unmatched-rendezvous" : "unmatched-send", rank, "",
        "holds an undelivered message from rank " + std::to_string(env.src) +
            " (ctx=" + std::to_string(env.ctx) + ", tag=" +
            std::to_string(env.tag) + ", " + std::to_string(env.bytes) +
            " bytes): the send was never matched by a receive"});
  }
  for (const simmpi::PostedRecv& pr : matcher.posted()) {
    blocked_edges_.push_back(
        BlockedEdge{rank, pr.ctx, pr.src, pr.tag, pr.capacity});
    deferred_.push_back(Violation{
        "blocked-recv", rank, "",
        "is blocked on a posted receive (ctx=" + std::to_string(pr.ctx) +
            ", src=" +
            (pr.src < 0 ? std::string("any") : std::to_string(pr.src)) +
            ", tag=" +
            (pr.tag < 0 ? std::string("any") : std::to_string(pr.tag)) +
            ", capacity=" + std::to_string(pr.capacity) +
            " bytes) that no message can ever match"});
  }
}

void Checker::finalize(bool deadlocked, const std::string& deadlock_what,
                       std::size_t live_slots,
                       std::size_t open_trace_spans) {
  // Collectives some ranks entered but not every party finished: in a
  // deadlock this names the operation the machine is stuck inside.
  for (const auto& [key, rec] : records_) {
    std::string inside;
    for (const Party& p : rec.party) {
      if (p.entered && !p.exited) {
        if (!inside.empty()) inside += ", ";
        inside += std::to_string(p.world_rank);
      }
    }
    std::string missing;
    int missing_n = 0;
    for (std::size_t cr = 0; cr < rec.party.size(); ++cr) {
      if (!rec.party[cr].entered) {
        if (!missing.empty()) missing += ", ";
        missing += std::to_string(cr);
        missing_n += 1;
      }
    }
    std::string msg = "invocation #" + std::to_string(key.second) +
                      " on context " + std::to_string(key.first) +
                      " never completed";
    if (!inside.empty()) msg += "; world ranks still inside: " + inside;
    if (missing_n > 0) msg += "; comm ranks that never entered: " + missing;
    deferred_.push_back(Violation{"unbalanced-collective", -1,
                                  std::string(coll_kind_name(rec.call.kind)) +
                                      "/" + rec.label,
                                  std::move(msg)});
  }
  if (strict() && live_slots > 0) {
    deferred_.push_back(Violation{
        "leaked-coll-slot", -1, "",
        std::to_string(live_slots) +
            " collective slot(s) (shared windows/latches) were never "
            "released; a rank skipped release_slot or parties disagreed"});
  }
  if (strict() && open_trace_spans > 0) {
    deferred_.push_back(Violation{
        "unbalanced-trace-span", -1, "",
        std::to_string(open_trace_spans) +
            " tracer span(s) were begun but never ended; every "
            "Tracer::begin needs a matching Tracer::end"});
  }
  std::string dl_json;
  if (deadlocked) {
    dl_json = deadlock_report_json(blocked_edges_);
    deferred_.push_back(Violation{
        "wait-cycle-deadlock", -1, "",
        deadlock_what +
            " — the blocked-request report above lists what each rank was "
            "waiting for; structured wait-cycle: " + dl_json});
  }
  if (deferred_.empty()) return;
  std::vector<Violation> vs = std::move(deferred_);
  deferred_.clear();
  std::string report = build_report(vs);  // before the move, see fail()
  throw CheckError(std::move(report), std::move(vs), std::move(dl_json));
}

}  // namespace dpml::check
