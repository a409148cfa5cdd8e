#include "exec/schedule.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/error.hpp"

namespace fghp::exec {

namespace {

constexpr std::size_t uz(idx_t v) { return static_cast<std::size_t>(v); }

weight_t send_words(const SpaceComm& sc) {
  weight_t words = 0;
  for (const Msg& m : sc.sends) words += static_cast<weight_t>(m.ids.size());
  return words;
}

}  // namespace

weight_t Schedule::total_words() const {
  weight_t words = 0;
  for (const auto& space : inComm)
    for (const SpaceComm& sc : space) words += send_words(sc);
  for (const SpaceComm& sc : outComm) words += send_words(sc);
  return words;
}

idx_t Schedule::total_messages() const {
  idx_t msgs = 0;
  for (const auto& space : inComm)
    for (const SpaceComm& sc : space) msgs += static_cast<idx_t>(sc.sends.size());
  for (const SpaceComm& sc : outComm) msgs += static_cast<idx_t>(sc.sends.size());
  return msgs;
}

void build_space_comm(std::span<const idx_t> owner,
                      std::vector<std::vector<idx_t>>& users, Flow flow,
                      std::vector<SpaceComm>& comm) {
  // (src, dst) -> ids; std::map iteration gives the deterministic message
  // order and the ascending id walk keeps every id list strictly increasing.
  std::map<std::pair<idx_t, idx_t>, std::vector<idx_t>> msgs;
  for (std::size_t id = 0; id < owner.size(); ++id) {
    const idx_t own = owner[id];
    comm[uz(own)].owned.push_back(static_cast<idx_t>(id));
    std::vector<idx_t>& u = users[id];
    std::sort(u.begin(), u.end());
    u.erase(std::unique(u.begin(), u.end()), u.end());
    for (idx_t p : u) {
      if (p == own) continue;
      const auto key = flow == Flow::Expand ? std::pair{own, p} : std::pair{p, own};
      msgs[key].push_back(static_cast<idx_t>(id));
    }
    std::vector<idx_t>().swap(u);
  }
  for (const auto& [key, ids] : msgs) {
    const auto [src, dst] = key;
    SpaceComm& sender = comm[uz(src)];
    const auto sendIndex = static_cast<idx_t>(sender.sends.size());
    sender.sends.push_back({dst, ids, kInvalidIdx});
    comm[uz(dst)].recvs.push_back({src, ids, sendIndex});
  }
}

std::vector<std::string> validate_schedule(const Schedule& s) {
  std::vector<std::string> problems;
  auto complain = [&](const std::ostringstream& os) { problems.push_back(os.str()); };

  const idx_t K = s.numProcs;
  const idx_t numSpaces = static_cast<idx_t>(s.inputs.size());
  {
    std::ostringstream os;
    if (static_cast<idx_t>(s.inComm.size()) != numSpaces) {
      os << "schedule has " << s.inComm.size() << " input comm schedules but "
         << numSpaces << " input spaces";
      complain(os);
      return problems;
    }
    bool ragged = static_cast<idx_t>(s.outComm.size()) != K ||
                  static_cast<idx_t>(s.tasks.size()) != K;
    for (const auto& space : s.inComm)
      ragged = ragged || static_cast<idx_t>(space.size()) != K;
    if (ragged) {
      os << "schedule comm/task arrays inconsistent with numProcs = " << K;
      complain(os);
      return problems;  // everything below indexes processors by [0, K)
    }
    if (s.rhsSpace < 0 || s.rhsSpace >= numSpaces) {
      os << "rhs space index " << s.rhsSpace << " out of range";
      complain(os);
      return problems;
    }
    if (!s.lhsConst && (s.lhsSpace < 0 || s.lhsSpace >= numSpaces)) {
      os << "lhs space index " << s.lhsSpace << " out of range";
      complain(os);
      return problems;
    }
  }

  // Per-processor task lists: ragged arrays and id ranges.
  const idx_t rhsSize = s.inputs[uz(s.rhsSpace)].size;
  const idx_t lhsSize = s.lhsConst ? 0 : s.inputs[uz(s.lhsSpace)].size;
  for (idx_t p = 0; p < K; ++p) {
    const ProcTasks& t = s.tasks[uz(p)];
    const std::size_t n = t.outId.size();
    const bool lhsOk = s.lhsConst ? (t.constVals.size() == n && t.lhsId.empty())
                                  : (t.lhsId.size() == n && t.constVals.empty());
    if (t.rhsId.size() != n || !lhsOk) {
      std::ostringstream os;
      os << "processor " << p << ": ragged task arrays (" << n << " out, "
         << t.lhsId.size() << " lhs, " << t.rhsId.size() << " rhs, "
         << t.constVals.size() << " const)";
      complain(os);
    }
    for (std::size_t e = 0; e < n; ++e) {
      const bool outBad = t.outId[e] < 0 || t.outId[e] >= s.output.size;
      const bool rhsBad = e >= t.rhsId.size() || t.rhsId[e] < 0 || t.rhsId[e] >= rhsSize;
      const bool lhsBad =
          !s.lhsConst && (e >= t.lhsId.size() || t.lhsId[e] < 0 || t.lhsId[e] >= lhsSize);
      if (outBad || rhsBad || lhsBad) {
        std::ostringstream os;
        os << "processor " << p << ": task " << e << " id out of range";
        complain(os);
        break;  // one report per processor is enough
      }
    }
  }

  // One space's ownership + message schedule. `comm` is the per-processor
  // array of this space; sendsOf(q) lets the recv check reach the peer's
  // send list.
  auto check_space = [&](const Space& space, const std::vector<SpaceComm>& comm) {
    std::vector<idx_t> owners(uz(space.size), 0);
    for (idx_t p = 0; p < K; ++p) {
      for (idx_t id : comm[uz(p)].owned) {
        if (id < 0 || id >= space.size) {
          std::ostringstream os;
          os << "processor " << p << ": owned " << space.name << " id " << id
             << " out of range";
          complain(os);
        } else {
          ++owners[uz(id)];
        }
      }

      // The determinism contract: every message's id list is strictly
      // increasing (sorted, no duplicates). Builders emit deduplicated
      // sorted lists; the compiled mailbox translation and the fold's
      // plan-order accumulation both assume it.
      auto check_sorted = [&](const std::vector<Msg>& msgs, const char* dir) {
        for (std::size_t m = 0; m < msgs.size(); ++m) {
          const auto& ids = msgs[m].ids;
          for (std::size_t k = 0; k + 1 < ids.size(); ++k) {
            if (ids[k] >= ids[k + 1]) {
              std::ostringstream os;
              os << "processor " << p << ": " << space.name << " " << dir << " " << m
                 << " ids not strictly increasing at position " << k + 1
                 << " (sorted/deduplicated contract)";
              complain(os);
              break;
            }
          }
          for (idx_t id : ids) {
            if (id < 0 || id >= space.size) {
              std::ostringstream os;
              os << "processor " << p << ": " << space.name << " " << dir << " " << m
                 << " id " << id << " out of range";
              complain(os);
              break;
            }
          }
        }
      };
      check_sorted(comm[uz(p)].sends, "send");
      check_sorted(comm[uz(p)].recvs, "recv");

      // Every recv must point back (peer, pairIndex) at a send with the
      // same id list addressed to this processor — the MT executor's
      // mailbox reads are exactly this lookup.
      for (const Msg& m : comm[uz(p)].recvs) {
        std::ostringstream os;
        if (m.peer < 0 || m.peer >= K) {
          os << "processor " << p << ": " << space.name << " recv from invalid peer "
             << m.peer;
          complain(os);
          continue;
        }
        const auto& peerSends = comm[uz(m.peer)].sends;
        if (m.pairIndex < 0 || m.pairIndex >= static_cast<idx_t>(peerSends.size())) {
          os << "processor " << p << ": " << space.name << " recv pairIndex "
             << m.pairIndex << " out of range for peer " << m.peer;
          complain(os);
          continue;
        }
        const Msg& send = peerSends[uz(m.pairIndex)];
        if (send.peer != p || send.ids != m.ids) {
          os << "processor " << p << ": " << space.name << " recv from peer " << m.peer
             << " does not match the paired send";
          complain(os);
        }
      }
    }
    for (idx_t id = 0; id < space.size; ++id) {
      if (owners[uz(id)] != 1) {
        std::ostringstream os;
        os << space.name << " id " << id << " owned by " << owners[uz(id)]
           << " processors (want exactly 1)";
        complain(os);
      }
    }
  };
  for (idx_t sp = 0; sp < numSpaces; ++sp)
    check_space(s.inputs[uz(sp)], s.inComm[uz(sp)]);
  check_space(s.output, s.outComm);

  return problems;
}

void validate_schedule_or_throw(const Schedule& s) {
  const auto problems = validate_schedule(s);
  if (problems.empty()) return;
  std::ostringstream os;
  os << "invalid execution schedule:";
  std::size_t shown = 0;
  for (const auto& p : problems) {
    os << "\n  - " << p;
    if (++shown == 20 && problems.size() > 20) {
      os << "\n  - ... and " << problems.size() - 20 << " more";
      break;
    }
  }
  ErrorContext ctx;
  ctx.phase = "schedule-validate";
  throw InvariantError(os.str(), std::move(ctx));
}

}  // namespace fghp::exec
