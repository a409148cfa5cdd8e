#include "exec/compiled.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <string>

#include "exec/kernels.hpp"
#include "sparse/reorder.hpp"
#include "util/assert.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace fghp::exec {

namespace {

constexpr std::size_t uz(idx_t v) { return static_cast<std::size_t>(v); }

[[noreturn]] void compile_error(std::string what) {
  ErrorContext ctx;
  ctx.phase = "plan-compile";
  throw InvariantError(std::move(what), std::move(ctx));
}

/// Cache-locality proxy of one block's multiply loop under a candidate
/// (group, rhs-slot) renumbering: walk the rhs-slot access sequence in
/// emission order and charge each jump the bit width of its slot distance —
/// log-distance tracks which level of the cache hierarchy the jump lands
/// in (a gap of 2^k doubles costs ~k), so a tight RCM band over a few
/// thousand slots scores far below a random spread over millions even
/// though both exceed a cache line. Lower is better.
std::uint64_t locality_score(const std::vector<idx_t>& rowNew,
                             const std::vector<idx_t>& colNew,
                             const std::vector<idx_t>& localGroupPtr,
                             const std::vector<idx_t>& grpRhs,
                             std::vector<idx_t>& oldOfNewScratch) {
  const idx_t nr = static_cast<idx_t>(rowNew.size());
  oldOfNewScratch.resize(uz(nr));
  for (idx_t r = 0; r < nr; ++r) oldOfNewScratch[uz(rowNew[uz(r)])] = r;
  std::uint64_t score = 0;
  idx_t prev = 0;
  for (idx_t newR = 0; newR < nr; ++newR) {
    const idx_t oldR = oldOfNewScratch[uz(newR)];
    for (idx_t pos = localGroupPtr[uz(oldR)]; pos < localGroupPtr[uz(oldR) + 1]; ++pos) {
      const idx_t slot = colNew[uz(grpRhs[uz(pos)])];
      const idx_t gap = slot > prev ? slot - prev : prev - slot;
      score += std::bit_width(static_cast<std::uint64_t>(gap));
      prev = slot;
    }
  }
  return score;
}

}  // namespace

weight_t Image::total_words() const {
  weight_t words = 0;
  for (const InSpaceImage& sp : in) words += static_cast<weight_t>(sp.sendOff.back());
  return words + static_cast<weight_t>(out.sendOff.back());
}

idx_t Image::total_messages() const {
  idx_t msgs = 0;
  for (const InSpaceImage& sp : in) msgs += sp.sendMsgOff.back();
  return msgs + out.sendMsgOff.back();
}

Image compile(const Schedule& s, const CompileOptions& opts) {
  const idx_t K = s.numProcs;
  const std::size_t numIn = s.inputs.size();
  FGHP_REQUIRE(s.outComm.size() == uz(K) && s.tasks.size() == uz(K) &&
                   s.inComm.size() == numIn,
               "schedule comm/task arrays inconsistent with numProcs");
  for (const auto& space : s.inComm)
    FGHP_REQUIRE(space.size() == uz(K), "schedule comm arrays inconsistent with numProcs");
  FGHP_REQUIRE(s.rhsSpace >= 0 && uz(s.rhsSpace) < numIn, "rhs space out of range");
  FGHP_REQUIRE(s.lhsConst || (s.lhsSpace >= 0 && uz(s.lhsSpace) < numIn),
               "lhs space out of range");
  trace::TraceScope span(s.traceCat, "plan.compile", "procs", K, "words",
                         s.total_words());
  cancel::check_point(opts.cancel, "plan.compile");

  Image c;
  c.traceCat = s.traceCat;
  c.traceIteration = s.traceIteration;
  c.metricPrefix = s.metricPrefix;
  c.numProcs = K;
  c.lhsConst = s.lhsConst;
  c.lhsSpace = s.lhsSpace;
  c.rhsSpace = s.rhsSpace;
  // The cache reorder only understands two-space (group x rhs-slot) blocks;
  // gathered-lhs schedules always keep their first-use numbering.
  c.cacheReordered = opts.cacheReorder && s.lhsConst;

  const std::size_t k1 = uz(K) + 1;
  c.in.resize(numIn);
  for (std::size_t sp = 0; sp < numIn; ++sp) {
    c.in[sp].size = s.inputs[sp].size;
    c.in[sp].off.assign(k1, 0);
    c.in[sp].ownOff.assign(k1, 0);
    c.in[sp].sendOff.assign(k1, 0);
    c.in[sp].sendMsgOff.assign(k1, 0);
    c.in[sp].recvOff.assign(k1, 0);
  }
  c.out.size = s.output.size;
  c.out.off.assign(k1, 0);
  c.out.ownOff.assign(k1, 0);
  c.out.sendOff.assign(k1, 0);
  c.out.sendMsgOff.assign(k1, 0);
  c.out.recvOff.assign(k1, 0);

  // Pass 1: prefix every space's send buffer and record the flat word base
  // of every message, so receivers can translate (peer, pairIndex) into
  // absolute send-buffer offsets without any search.
  std::vector<std::vector<idx_t>> inMsgBase(numIn);
  std::vector<idx_t> outMsgBase;
  for (idx_t p = 0; p < K; ++p) {
    for (std::size_t sp = 0; sp < numIn; ++sp) {
      InSpaceImage& im = c.in[sp];
      idx_t w = im.sendOff[uz(p)];
      for (const Msg& m : s.inComm[sp][uz(p)].sends) {
        inMsgBase[sp].push_back(w);
        w += static_cast<idx_t>(m.ids.size());
      }
      im.sendOff[uz(p) + 1] = w;
      im.sendMsgOff[uz(p) + 1] =
          im.sendMsgOff[uz(p)] + static_cast<idx_t>(s.inComm[sp][uz(p)].sends.size());
    }
    idx_t w = c.out.sendOff[uz(p)];
    for (const Msg& m : s.outComm[uz(p)].sends) {
      outMsgBase.push_back(w);
      w += static_cast<idx_t>(m.ids.size());
    }
    c.out.sendOff[uz(p) + 1] = w;
    c.out.sendMsgOff[uz(p) + 1] =
        c.out.sendMsgOff[uz(p)] + static_cast<idx_t>(s.outComm[uz(p)].sends.size());
  }

  // Pass 2: per-processor local numbering. The slot maps are global-sized
  // scratch (one per space), reset entry-by-entry after each processor.
  // Slots are assigned in two steps: a provisional id in first-use order
  // over the local tasks (plus expand-recv-only input ids), then — for
  // baked-constant schedules with the cache reorder on — a bipartite RCM
  // renumbering of the block so consecutive groups of the multiply loop
  // touch nearby rhs slots. Every downstream table reads the slot maps
  // after the renumbering, which is how the permutation folds into the
  // whole image without touching any schedule order.
  std::vector<std::vector<idx_t>> inSlotOf(numIn), inTouched(numIn);
  for (std::size_t sp = 0; sp < numIn; ++sp)
    inSlotOf[sp].assign(uz(s.inputs[sp].size), kInvalidIdx);
  std::vector<idx_t> outSlotOf(uz(s.output.size), kInvalidIdx);
  std::vector<idx_t> touchedOut, groupCount, cursor;
  std::vector<idx_t> localGroupPtr, grpRhs, grpLhs, oldOfNewGroup, slotIds;
  std::vector<double> grpVal;
  sparse::BipartiteOrdering perm;

  std::size_t totalTasks = 0;
  for (const ProcTasks& t : s.tasks) totalTasks += t.outId.size();
  c.rhsSlot.resize(totalTasks);
  if (s.lhsConst)
    c.constVals.resize(totalTasks);
  else
    c.lhsSlot.resize(totalTasks);

  idx_t taskBase = 0;
  for (idx_t p = 0; p < K; ++p) {
    const ProcTasks& t = s.tasks[uz(p)];
    const std::size_t n = t.outId.size();
    const bool lhsOk = s.lhsConst ? t.constVals.size() == n : t.lhsId.size() == n;
    if (t.rhsId.size() != n || !lhsOk)
      compile_error("ragged task arrays on processor " + std::to_string(p));
    const idx_t groupBase = c.out.off[uz(p)];
    touchedOut.clear();
    for (std::size_t sp = 0; sp < numIn; ++sp) inTouched[sp].clear();

    // Provisional (pre-permutation) group and input ids in first-use order
    // over the local tasks (out, then lhs, then rhs per task).
    auto touch_in = [&](std::size_t sp, idx_t id) {
      if (id < 0 || id >= s.inputs[sp].size)
        compile_error("processor " + std::to_string(p) + ": task " +
                      s.inputs[sp].name + " id " + std::to_string(id) +
                      " outside the space");
      if (inSlotOf[sp][uz(id)] == kInvalidIdx) {
        inSlotOf[sp][uz(id)] = static_cast<idx_t>(inTouched[sp].size());
        inTouched[sp].push_back(id);
      }
    };
    for (std::size_t e = 0; e < n; ++e) {
      const idx_t o = t.outId[e];
      if (o < 0 || o >= s.output.size)
        compile_error("processor " + std::to_string(p) + ": task " +
                      s.output.name + " id " + std::to_string(o) +
                      " outside the space");
      if (outSlotOf[uz(o)] == kInvalidIdx) {
        outSlotOf[uz(o)] = static_cast<idx_t>(touchedOut.size());
        touchedOut.push_back(o);
      }
      if (!s.lhsConst) touch_in(uz(s.lhsSpace), t.lhsId[e]);
      touch_in(uz(s.rhsSpace), t.rhsId[e]);
    }

    // An expand recv may deliver an id no local task reads (legal in a
    // hand-built schedule); such ids still get a slot so delivery has a
    // target. They take part in the renumbering as isolated vertices (RCM
    // places them last — the multiply never reads them).
    for (std::size_t sp = 0; sp < numIn; ++sp) {
      for (const Msg& m : s.inComm[sp][uz(p)].recvs) {
        for (idx_t id : m.ids) {
          if (id < 0 || id >= s.inputs[sp].size)
            compile_error("processor " + std::to_string(p) + ": " +
                          s.inputs[sp].name + " recv id out of range");
          if (inSlotOf[sp][uz(id)] == kInvalidIdx) {
            inSlotOf[sp][uz(id)] = static_cast<idx_t>(inTouched[sp].size());
            inTouched[sp].push_back(id);
          }
        }
      }
    }
    const idx_t nr = static_cast<idx_t>(touchedOut.size());
    const idx_t nc = static_cast<idx_t>(inTouched[uz(s.rhsSpace)].size());

    // Group the local tasks by provisional output slot, preserving the
    // schedule's within-group task order (the canonical accumulation order,
    // so sums stay bit-identical under any renumbering).
    groupCount.assign(uz(nr), 0);
    for (idx_t o : t.outId) ++groupCount[uz(outSlotOf[uz(o)])];
    localGroupPtr.assign(uz(nr) + 1, 0);
    for (idx_t r = 0; r < nr; ++r)
      localGroupPtr[uz(r) + 1] = localGroupPtr[uz(r)] + groupCount[uz(r)];
    cursor.assign(localGroupPtr.begin(), localGroupPtr.end() - 1);
    grpRhs.resize(n);
    if (s.lhsConst)
      grpVal.resize(n);
    else
      grpLhs.resize(n);
    for (std::size_t e = 0; e < n; ++e) {
      const idx_t pos = cursor[uz(outSlotOf[uz(t.outId[e])])]++;
      grpRhs[uz(pos)] = inSlotOf[uz(s.rhsSpace)][uz(t.rhsId[e])];
      if (s.lhsConst)
        grpVal[uz(pos)] = t.constVals[e];
      else
        grpLhs[uz(pos)] = inSlotOf[uz(s.lhsSpace)][uz(t.lhsId[e])];
    }

    // Second-level cache reordering of the block. The bipartite RCM
    // candidate is adopted only when it beats the first-use numbering's
    // locality score by a margin — blocks that already arrive well ordered
    // (banded matrices in natural order, tiny fragments with no structure)
    // keep their numbering, so the reorder can help but never regress.
    perm.rowNew.resize(uz(nr));
    perm.colNew.resize(uz(nc));
    for (idx_t r = 0; r < nr; ++r) perm.rowNew[uz(r)] = r;
    for (idx_t j = 0; j < nc; ++j) perm.colNew[uz(j)] = j;
    if (c.cacheReordered && nr > 1) {
      sparse::BipartiteOrdering rcm =
          sparse::bipartite_rcm(nr, nc, localGroupPtr, grpRhs);
      const std::uint64_t idScore = locality_score(perm.rowNew, perm.colNew,
                                                   localGroupPtr, grpRhs, oldOfNewGroup);
      const std::uint64_t rcmScore =
          locality_score(rcm.rowNew, rcm.colNew, localGroupPtr, grpRhs, oldOfNewGroup);
      // Adopt only on a decisive (>= 25%) score win: the proxy cannot see
      // the multi-stream prefetch a banded natural order enjoys, so a
      // marginal score edge is not worth disturbing it.
      if (rcmScore * 4 < idScore * 3) {
        perm = std::move(rcm);
        ++c.reorderedProcs;
      }
    }

    // Finalize the slot maps: provisional id -> permuted id + base. All
    // remaining tables of this processor read these final slots. Only the
    // output and rhs spaces take part in the permutation; any other input
    // space keeps its first-use numbering.
    for (idx_t o : touchedOut)
      outSlotOf[uz(o)] = groupBase + perm.rowNew[uz(outSlotOf[uz(o)])];
    for (std::size_t sp = 0; sp < numIn; ++sp) {
      const idx_t base = c.in[sp].off[uz(p)];
      if (sp == uz(s.rhsSpace)) {
        for (idx_t id : inTouched[sp])
          inSlotOf[sp][uz(id)] = base + perm.colNew[uz(inSlotOf[sp][uz(id)])];
      } else {
        for (idx_t id : inTouched[sp]) inSlotOf[sp][uz(id)] += base;
      }
    }

    // Emit the block's task CSR in permuted group order (each group's
    // entries keep their schedule order; slots are final). grpLhs holds
    // provisional lhs-space slots — the lhs space never participates in the
    // permutation (the reorder requires lhsConst), so final = base + slot.
    oldOfNewGroup.resize(uz(nr));
    for (idx_t r = 0; r < nr; ++r) oldOfNewGroup[uz(perm.rowNew[uz(r)])] = r;
    const idx_t rhsBase = c.in[uz(s.rhsSpace)].off[uz(p)];
    const idx_t lhsBase = s.lhsConst ? 0 : c.in[uz(s.lhsSpace)].off[uz(p)];
    idx_t run = taskBase;
    for (idx_t newR = 0; newR < nr; ++newR) {
      const idx_t oldR = oldOfNewGroup[uz(newR)];
      c.groupPtr.push_back(run);
      for (idx_t pos = localGroupPtr[uz(oldR)]; pos < localGroupPtr[uz(oldR) + 1];
           ++pos, ++run) {
        c.rhsSlot[uz(run)] = rhsBase + perm.colNew[uz(grpRhs[uz(pos)])];
        if (s.lhsConst)
          c.constVals[uz(run)] = grpVal[uz(pos)];
        else
          c.lhsSlot[uz(run)] = lhsBase + grpLhs[uz(pos)];
      }
    }
    taskBase = run;

    c.out.off[uz(p) + 1] = groupBase + nr;

    // Per input space: the slot -> global-id table, the owner gather, the
    // send gather and the pre-translated recv copies.
    for (std::size_t sp = 0; sp < numIn; ++sp) {
      InSpaceImage& im = c.in[sp];
      const auto& sc = s.inComm[sp][uz(p)];
      const idx_t ncs = static_cast<idx_t>(inTouched[sp].size());
      im.off[uz(p) + 1] = im.off[uz(p)] + ncs;
      slotIds.resize(uz(ncs));
      if (sp == uz(s.rhsSpace)) {
        for (idx_t j = 0; j < ncs; ++j)
          slotIds[uz(perm.colNew[uz(j)])] = inTouched[sp][uz(j)];
      } else {
        for (idx_t j = 0; j < ncs; ++j) slotIds[uz(j)] = inTouched[sp][uz(j)];
      }
      im.slotGlobal.insert(im.slotGlobal.end(), slotIds.begin(), slotIds.end());

      // Owned values with a local consumer (the MT expand gather).
      for (idx_t id : sc.owned) {
        if (id < 0 || id >= s.inputs[sp].size)
          compile_error("processor " + std::to_string(p) + ": owned " +
                        s.inputs[sp].name + " id out of range");
        if (inSlotOf[sp][uz(id)] != kInvalidIdx) {
          im.ownId.push_back(id);
          im.ownSlot.push_back(inSlotOf[sp][uz(id)]);
        }
      }
      im.ownOff[uz(p) + 1] = static_cast<idx_t>(im.ownId.size());

      // Expand sends gather straight from the global input: the sender owns
      // these ids, so its local copy is the global value.
      for (const Msg& m : sc.sends)
        for (idx_t id : m.ids) {
          if (id < 0 || id >= s.inputs[sp].size)
            compile_error("processor " + std::to_string(p) + ": " +
                          s.inputs[sp].name + " send id out of range");
          im.sendId.push_back(id);
        }

      // Expand recvs: flat (source word -> destination slot) copies.
      idx_t recvWords = im.recvOff[uz(p)];
      for (const Msg& m : sc.recvs) {
        if (m.peer < 0 || m.peer >= K)
          compile_error("processor " + std::to_string(p) + ": " +
                        s.inputs[sp].name + " recv from invalid peer");
        const auto& peerSends = s.inComm[sp][uz(m.peer)].sends;
        if (m.pairIndex < 0 || m.pairIndex >= static_cast<idx_t>(peerSends.size()) ||
            peerSends[uz(m.pairIndex)].ids.size() != m.ids.size())
          compile_error("processor " + std::to_string(p) + ": " +
                        s.inputs[sp].name + " recv does not pair with its send");
        const idx_t srcBase =
            inMsgBase[sp][uz(im.sendMsgOff[uz(m.peer)] + m.pairIndex)];
        for (std::size_t k = 0; k < m.ids.size(); ++k) {
          im.recvSlot.push_back(inSlotOf[sp][uz(m.ids[k])]);
          im.recvSrc.push_back(srcBase + static_cast<idx_t>(k));
        }
        recvWords += static_cast<idx_t>(m.ids.size());
      }
      im.recvOff[uz(p) + 1] = recvWords;
    }

    // Fold, owner side: owned output ids this processor actually computed.
    const auto& oc = s.outComm[uz(p)];
    for (idx_t o : oc.owned) {
      if (o < 0 || o >= s.output.size)
        compile_error("processor " + std::to_string(p) + ": owned " +
                      s.output.name + " id out of range");
      if (outSlotOf[uz(o)] != kInvalidIdx) {
        c.out.ownId.push_back(o);
        c.out.ownSlot.push_back(outSlotOf[uz(o)]);
      }
    }
    c.out.ownOff[uz(p) + 1] = static_cast<idx_t>(c.out.ownId.size());

    // Fold sends must reference ids this processor computes a partial for.
    for (const Msg& m : oc.sends)
      for (idx_t o : m.ids) {
        if (o < 0 || o >= s.output.size || outSlotOf[uz(o)] == kInvalidIdx)
          compile_error("fold schedule on processor " + std::to_string(p) +
                        " references " + s.output.name + " id " + std::to_string(o) +
                        " it never computes");
        c.out.sendSlot.push_back(outSlotOf[uz(o)]);
        c.out.sendId.push_back(o);
      }

    // Fold recvs.
    idx_t outRecvWords = c.out.recvOff[uz(p)];
    for (const Msg& m : oc.recvs) {
      if (m.peer < 0 || m.peer >= K)
        compile_error("processor " + std::to_string(p) + ": fold recv from invalid peer");
      const auto& peerSends = s.outComm[uz(m.peer)].sends;
      if (m.pairIndex < 0 || m.pairIndex >= static_cast<idx_t>(peerSends.size()) ||
          peerSends[uz(m.pairIndex)].ids.size() != m.ids.size())
        compile_error("processor " + std::to_string(p) +
                      ": fold recv does not pair with its send");
      const idx_t srcBase = outMsgBase[uz(c.out.sendMsgOff[uz(m.peer)] + m.pairIndex)];
      for (std::size_t k = 0; k < m.ids.size(); ++k) {
        const idx_t o = m.ids[k];
        if (o < 0 || o >= s.output.size)
          compile_error("processor " + std::to_string(p) + ": fold recv id out of range");
        c.out.recvId.push_back(o);
        c.out.recvSrc.push_back(srcBase + static_cast<idx_t>(k));
      }
      outRecvWords += static_cast<idx_t>(m.ids.size());
    }
    c.out.recvOff[uz(p) + 1] = outRecvWords;

    // Disarm the slot maps for the next processor.
    for (idx_t o : touchedOut) outSlotOf[uz(o)] = kInvalidIdx;
    for (std::size_t sp = 0; sp < numIn; ++sp)
      for (idx_t id : inTouched[sp]) inSlotOf[sp][uz(id)] = kInvalidIdx;
  }
  c.groupPtr.push_back(taskBase);

  // The compiled send spaces must cover the schedule's exact traffic: one
  // flat word per scheduled word, nothing more, and the same message count —
  // ExecStats come straight from these offsets.
  bool covered = static_cast<idx_t>(c.out.sendSlot.size()) == c.out.sendOff.back();
  for (const InSpaceImage& im : c.in)
    covered = covered && static_cast<idx_t>(im.sendId.size()) == im.sendOff.back();
  if (!covered || c.total_words() != s.total_words() ||
      c.total_messages() != s.total_messages())
    compile_error("compiled send-buffer offsets do not cover the schedule's traffic");
  return c;
}

Session::Session(Image compiled) : c_(std::move(compiled)) {
  // assign, not resize: explicit zero-fill even if these vectors ever carry
  // capacity from a prior image (e.g. a moved-from session), so no run can
  // observe stale tail data.
  inLoc_.resize(c_.in.size());
  inSendBuf_.resize(c_.in.size());
  for (std::size_t sp = 0; sp < c_.in.size(); ++sp) {
    inLoc_[sp].assign(uz(c_.in[sp].off.back()), 0.0);
    inSendBuf_[sp].assign(uz(c_.in[sp].sendOff.back()), 0.0);
  }
  partial_.assign(uz(c_.out.off.back()), 0.0);
  outSendBuf_.assign(uz(c_.out.sendOff.back()), 0.0);
  resolve_metrics();
}

Session::Session(const Schedule& s, const CompileOptions& opts)
    : Session(compile(s, opts)) {}

void Session::resolve_metrics() {
  // Registered metrics resolve once per session (the references are
  // process-lifetime), so iterations after the first stay allocation-free —
  // the contract test_compiled asserts. Resolved per workload prefix, never
  // cached in a function-local static: two workloads share this code.
  mIterations_ = &metrics::counter(c_.metricPrefix + ".iterations");
  mExpandWords_ = &metrics::counter(c_.metricPrefix + ".expand.words");
  mFoldWords_ = &metrics::counter(c_.metricPrefix + ".fold.words");
  mMessages_ = &metrics::counter(c_.metricPrefix + ".messages");
  mTaskRetries_ = &metrics::counter(c_.metricPrefix + ".task_retries");
  mSerialFallbacks_ = &metrics::counter(c_.metricPrefix + ".serial_fallbacks");
  mIterationUs_ = &metrics::histogram(
      c_.metricPrefix + ".iteration.us",
      {10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000, 50000, 100000,
       200000, 500000, 1000000});
}

void Session::note_iteration(std::uint64_t startNs) {
  mIterationUs_->observe(
      static_cast<std::int64_t>((trace::now_ns() - startNs) / 1000));
}

void Session::run(std::span<const std::span<const double>> ins,
                  std::vector<double>& out, ExecStats* stats) {
  cancel::check_point(cancel_, "exec.iter", "cancel.exec.iter", ++iter_);
  const std::uint64_t t0 = trace::now_ns();
  run_serial_impl(ins, out, stats);
  note_iteration(t0);
}

void Session::run_serial_impl(std::span<const std::span<const double>> ins,
                              std::vector<double>& out, ExecStats* stats) {
  trace::TraceScope span(c_.traceCat, c_.traceIteration, "procs", c_.numProcs,
                         "mt", 0);
  FGHP_REQUIRE(ins.size() == c_.in.size(), "input space count mismatch");
  for (std::size_t sp = 0; sp < c_.in.size(); ++sp)
    FGHP_REQUIRE(ins[sp].size() == uz(c_.in[sp].size), "input size mismatch");
  out.resize(uz(c_.out.size));
  std::fill(out.begin(), out.end(), 0.0);

  // Expand: one flat gather per input space. Owned and delivered values are
  // both the global value, so the serial path needs no message buffers.
  for (std::size_t sp = 0; sp < c_.in.size(); ++sp)
    kern::gather(inLoc_[sp].data(), ins[sp].data(), c_.in[sp].slotGlobal.data(),
                 inLoc_[sp].size());

  // Local multiply in the schedule's per-group task order.
  const double* rhs = inLoc_[uz(c_.rhsSpace)].data();
  if (c_.lhsConst) {
    for (std::size_t r = 0; r < partial_.size(); ++r)
      partial_[r] = kern::row_dot(c_.constVals.data(), c_.rhsSlot.data(), rhs,
                                  c_.groupPtr[r], c_.groupPtr[r + 1]);
  } else {
    const double* lhs = inLoc_[uz(c_.lhsSpace)].data();
    for (std::size_t r = 0; r < partial_.size(); ++r)
      partial_[r] = kern::pair_dot(c_.lhsSlot.data(), lhs, c_.rhsSlot.data(), rhs,
                                   c_.groupPtr[r], c_.groupPtr[r + 1]);
  }

  // Fold: every processor's own contributions first, then the sent partials
  // in schedule (sender-major) order — the canonical summation order.
  for (std::size_t i = 0; i < c_.out.ownId.size(); ++i)
    out[uz(c_.out.ownId[i])] += partial_[uz(c_.out.ownSlot[i])];
  for (std::size_t w = 0; w < c_.out.sendId.size(); ++w)
    out[uz(c_.out.sendId[w])] += partial_[uz(c_.out.sendSlot[w])];

  if (stats != nullptr) {
    *stats = {};
    stats->wordsSent = c_.total_words();
    stats->messagesSent = c_.total_messages();
  }

  mIterations_->add();
  weight_t expandWords = 0;
  for (const InSpaceImage& im : c_.in) expandWords += im.sendOff.back();
  mExpandWords_->add(expandWords);
  mFoldWords_->add(c_.out.sendOff.back());
  mMessages_->add(c_.total_messages());
}

void Session::run_mt(std::span<const std::span<const double>> ins,
                     std::vector<double>& out, idx_t numThreads, ExecStats* stats) {
  trace::TraceScope span(c_.traceCat, c_.traceIteration, "procs", c_.numProcs,
                         "mt", 1);
  cancel::check_point(cancel_, "exec.iter", "cancel.exec.iter", ++iter_);
  const std::uint64_t iterT0 = trace::now_ns();
  FGHP_REQUIRE(ins.size() == c_.in.size(), "input space count mismatch");
  for (std::size_t sp = 0; sp < c_.in.size(); ++sp)
    FGHP_REQUIRE(ins[sp].size() == uz(c_.in[sp].size), "input size mismatch");
  const idx_t K = c_.numProcs;

  // Worker resolution routes through the shared pool, so FGHP_THREADS and
  // PartitionConfig::numThreads behave exactly as thread_pool.hpp documents:
  // an explicit positive request wins, otherwise the pool default applies,
  // capped at K because tasks are per-processor. A request that resolves to
  // one thread gets no pool at all — the supersteps run inline on the
  // caller with every fault site and recovery rung still armed.
  long requested = numThreads > 0
                       ? static_cast<long>(numThreads)
                       : static_cast<long>(ThreadPool::default_num_threads());
  requested = std::min<long>(requested, static_cast<long>(K));
  ThreadPool* pool = ThreadPool::for_request(requested);

  out.resize(uz(c_.out.size));
  std::fill(out.begin(), out.end(), 0.0);

  // This run's traffic tallies are standalone metrics counters: the tasks
  // below are the only writers, ExecStats reads them back, and the totals
  // fold into the registered metrics once at the end — one source of truth
  // instead of parallel hand-rolled atomics.
  metrics::Counter expandWords, foldWords, messages, taskRetries;
  std::atomic<bool> failed{false};

  // Per-processor task wrapper: one retry (fault site `exec.retry`, same
  // ordinal), then give up and flag the run for the serial fallback. Task
  // bodies are idempotent — every scratch word they touch is assigned, not
  // accumulated, and the traffic counters commit only on their last line —
  // so a retry after a partial first attempt cannot double-count or
  // double-accumulate. The flag is read after the next barrier, so a failed
  // superstep never feeds garbage into the next one. Each completed task is
  // a trace span bracketed explicitly (begin/end on the worker that ran it).
  auto run_task = [&](const char* site, idx_t p, auto&& body) {
    // Name the in-flight work for watchdog stall attribution: the explicit
    // begin/end span below records only *completed* tasks, so a hung body
    // would otherwise be invisible to current_activity().
    trace::ActivityScope act(site);
    for (int attempt = 0; attempt < 2; ++attempt) {
      try {
        fault::check(attempt == 0 ? site : "exec.retry", p + 1);
        const bool traced = trace::enabled();
        const std::uint64_t t0 = traced ? trace::now_ns() : 0;
        body();
        if (traced) trace::complete(c_.traceCat, site, t0, trace::now_ns(), "proc", p);
        return;
      } catch (const std::exception& e) {
        if (attempt == 0) {
          taskRetries.add();
          trace::instant("recovery", "exec.task_retry", "proc", p);
          push_warning(std::string("executor task '") + site + "' on processor " +
                       std::to_string(p) + " failed (" + e.what() + "); retrying");
        } else {
          trace::instant("recovery", "exec.serial_fallback", "proc", p);
          push_warning(std::string("executor task '") + site + "' on processor " +
                       std::to_string(p) + " failed its retry (" + e.what() +
                       "); degrading to the serial executor");
          failed.store(true, std::memory_order_release);
        }
      }
    }
  };

  // One BSP superstep: fn(p) for every processor, fully joined before
  // returning (parallel_for blocks until all tasks completed — that join is
  // the barrier between supersteps). Serial resolution runs inline.
  auto superstep = [&](auto&& fn) {
    if (pool != nullptr)
      parallel_for(*pool, static_cast<long>(K),
                   [&](long p) { fn(static_cast<idx_t>(p)); });
    else
      for (idx_t p = 0; p < K; ++p) fn(p);
  };

  // Superstep 1: gather every input space's owned values into local slots
  // and its expand buffer.
  superstep([&](idx_t p) {
    run_task("exec.expand", p, [&, p] {
      idx_t sentTotal = 0;
      idx_t msgs = 0;
      for (std::size_t sp = 0; sp < c_.in.size(); ++sp) {
        const InSpaceImage& im = c_.in[sp];
        const std::span<const double> x = ins[sp];
        for (idx_t w = im.ownOff[uz(p)]; w < im.ownOff[uz(p) + 1]; ++w)
          inLoc_[sp][uz(im.ownSlot[uz(w)])] = x[uz(im.ownId[uz(w)])];
        const idx_t base = im.sendOff[uz(p)];
        const idx_t sent = im.sendOff[uz(p) + 1] - base;
        kern::gather(inSendBuf_[sp].data() + base, x.data(), im.sendId.data() + base,
                     uz(sent));
        sentTotal += sent;
        msgs += im.sendMsgOff[uz(p) + 1] - im.sendMsgOff[uz(p)];
      }
      expandWords.add(sentTotal);
      messages.add(msgs);
      trace::counter(c_.traceCat, "expand.words", static_cast<double>(sentTotal),
                     "proc", p);
    });
  });

  // Between supersteps the caller thread is at a barrier — the only place a
  // cancellation can be observed without racing the retry ladder inside the
  // worker tasks. The scratch is fully re-assigned by every run, so an
  // iteration abandoned here leaves the session reusable.
  cancel::check_point(cancel_, "exec.superstep", nullptr, iter_);

  // Superstep 2: drain the expand buffers, multiply locally, fill the fold
  // buffer.
  if (!failed.load(std::memory_order_acquire)) {
    superstep([&](idx_t p) {
      run_task("exec.fold", p, [&, p] {
        for (std::size_t sp = 0; sp < c_.in.size(); ++sp) {
          const InSpaceImage& im = c_.in[sp];
          for (idx_t w = im.recvOff[uz(p)]; w < im.recvOff[uz(p) + 1]; ++w)
            inLoc_[sp][uz(im.recvSlot[uz(w)])] = inSendBuf_[sp][uz(im.recvSrc[uz(w)])];
        }
        const double* rhs = inLoc_[uz(c_.rhsSpace)].data();
        if (c_.lhsConst) {
          for (idx_t r = c_.out.off[uz(p)]; r < c_.out.off[uz(p) + 1]; ++r)
            partial_[uz(r)] = kern::row_dot(c_.constVals.data(), c_.rhsSlot.data(),
                                            rhs, c_.groupPtr[uz(r)],
                                            c_.groupPtr[uz(r) + 1]);
        } else {
          const double* lhs = inLoc_[uz(c_.lhsSpace)].data();
          for (idx_t r = c_.out.off[uz(p)]; r < c_.out.off[uz(p) + 1]; ++r)
            partial_[uz(r)] = kern::pair_dot(c_.lhsSlot.data(), lhs, c_.rhsSlot.data(),
                                             rhs, c_.groupPtr[uz(r)],
                                             c_.groupPtr[uz(r) + 1]);
        }
        const idx_t base = c_.out.sendOff[uz(p)];
        const idx_t sent = c_.out.sendOff[uz(p) + 1] - base;
        kern::gather(outSendBuf_.data() + base, partial_.data(),
                     c_.out.sendSlot.data() + base, uz(sent));
        foldWords.add(sent);
        messages.add(c_.out.sendMsgOff[uz(p) + 1] - c_.out.sendMsgOff[uz(p)]);
        trace::counter(c_.traceCat, "fold.words", static_cast<double>(sent), "proc", p);
      });
    });
  }

  cancel::check_point(cancel_, "exec.superstep", nullptr, iter_);

  // Superstep 3: owners accumulate their own partial plus received partials
  // in schedule order (same order as the serial path). Each output id has a
  // unique owner, so writes to the output are disjoint across processors.
  if (!failed.load(std::memory_order_acquire)) {
    superstep([&](idx_t p) {
      for (idx_t w = c_.out.ownOff[uz(p)]; w < c_.out.ownOff[uz(p) + 1]; ++w)
        out[uz(c_.out.ownId[uz(w)])] += partial_[uz(c_.out.ownSlot[uz(w)])];
      for (idx_t w = c_.out.recvOff[uz(p)]; w < c_.out.recvOff[uz(p) + 1]; ++w)
        out[uz(c_.out.recvId[uz(w)])] += outSendBuf_[uz(c_.out.recvSrc[uz(w)])];
    });
  }

  mTaskRetries_->add(taskRetries.value());

  if (failed.load(std::memory_order_acquire)) {
    // Some task failed even its retry: discard the partial parallel run and
    // recompute from scratch on the (uninstrumented) serial path, which
    // re-zeroes the output. Output and traffic counts match a clean run
    // exactly. run_serial_impl, not run(): this is still the same logical
    // iteration, so it must not consume a second check-point ordinal.
    mSerialFallbacks_->add();
    run_serial_impl(ins, out, stats);
    if (stats != nullptr) {
      stats->taskRetries = static_cast<idx_t>(taskRetries.value());
      stats->serialFallback = true;
    }
    note_iteration(iterT0);
    return;
  }

  mIterations_->add();
  mExpandWords_->add(expandWords.value());
  mFoldWords_->add(foldWords.value());
  mMessages_->add(messages.value());

  if (stats != nullptr) {
    stats->wordsSent = static_cast<weight_t>(expandWords.value() + foldWords.value());
    stats->messagesSent = static_cast<idx_t>(messages.value());
    stats->taskRetries = static_cast<idx_t>(taskRetries.value());
    stats->serialFallback = false;
  }
  note_iteration(iterT0);
}

}  // namespace fghp::exec
