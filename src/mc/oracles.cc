#include "mc/oracles.h"

#include <sstream>
#include <unordered_map>
#include <utility>

namespace codlock::mc {

using lock::LockMode;

bool PristineCompatible(LockMode a, LockMode b) {
  // §3, Fig. 2 — [GLPT76].  Row/column order: NL IS IX S SIX X.
  static constexpr bool kMatrix[6][6] = {
      /* NL  */ {true, true, true, true, true, true},
      /* IS  */ {true, true, true, true, true, false},
      /* IX  */ {true, true, true, false, false, false},
      /* S   */ {true, true, false, true, false, false},
      /* SIX */ {true, true, false, false, false, false},
      /* X   */ {true, false, false, false, false, false},
  };
  return kMatrix[static_cast<int>(a)][static_cast<int>(b)];
}

void OracleSuite::AddViolation(std::string msg) {
  violations_.push_back(std::move(msg));
}

void OracleSuite::CheckStep(bool quiescent) {
  CheckCompatibility();
  CheckHeldRows();
  if (quiescent) CheckVisibility();
}

void OracleSuite::CheckTerminal() {
  proto::SerializabilityVerdict v = proto::CheckConflictSerializable(
      run_->History(), run_->CommittedIds());
  if (!v.serializable) {
    std::string msg = "serializability: committed history has cycle";
    for (lock::TxnId t : v.cycle) msg += " ->" + std::to_string(t);
    AddViolation(std::move(msg));
  }
}

void OracleSuite::NoteForcedTimeout() {
  if (run_->options().policy != lock::DeadlockPolicy::kTimeoutOnly) {
    AddViolation(
        std::string("termination: schedule stalled under policy ") +
        std::string(lock::DeadlockPolicyName(run_->options().policy)) +
        " (lost wakeup or unhandled deadlock; timeout had to be injected)");
  }
}

void OracleSuite::NoteNonTermination() {
  AddViolation("termination: execution exceeded its step budget");
}

void OracleSuite::CheckCompatibility() {
  std::unordered_map<lock::ResourceId,
                     std::vector<std::pair<lock::TxnId, LockMode>>,
                     lock::ResourceIdHash>
      by_res;
  for (const lock::LongLockRecord& rec :
       run_->lock_manager().SnapshotAllLocks()) {
    by_res[rec.resource].emplace_back(rec.txn, rec.mode);
  }
  for (const auto& [res, holders] : by_res) {
    for (size_t i = 0; i < holders.size(); ++i) {
      for (size_t j = i + 1; j < holders.size(); ++j) {
        if (holders[i].first == holders[j].first) continue;
        if (!PristineCompatible(holders[i].second, holders[j].second)) {
          AddViolation("compatibility: txn " +
                       std::to_string(holders[i].first) + " holds " +
                       std::string(lock::LockModeName(holders[i].second)) +
                       " and txn " + std::to_string(holders[j].first) +
                       " holds " +
                       std::string(lock::LockModeName(holders[j].second)) +
                       " on " + res.ToString());
        }
      }
    }
  }
}

void OracleSuite::CheckVisibility() {
  proto::ProtocolValidator validator(&run_->graph(), &run_->store());
  for (const proto::Violation& v : validator.Check(run_->lock_manager())) {
    AddViolation("visibility: " + v.ToString());
  }
}

void OracleSuite::CheckHeldRows() {
  const lock::LockManager& lm = run_->lock_manager();
  for (int i = 0; i < run_->num_txns(); ++i) {
    txn::Transaction* t = run_->txn(i);
    // Copied first: the table is read without the transaction's mutex.
    std::vector<lock::TxnLocks::Row> rows;
    t->locks().ForEachRow(
        [&rows](const lock::TxnLocks::Row& row) { rows.push_back(row); });
    for (const lock::TxnLocks::Row& row : rows) {
      LockMode held = LockMode::kNL;
      std::ostringstream missing;
      row.ForEachEntry([&](lock::ResourceId entry) {
        const LockMode m = lm.HeldMode(t->id(), entry);
        if (m == LockMode::kNL) missing << " " << entry.ToString();
        held = lock::Supremum(held, m);
      });
      if (!missing.str().empty() || !lock::Covers(held, row.mode)) {
        std::ostringstream msg;
        msg << "rows: txn " << t->id() << " row claims "
            << lock::LockModeName(row.mode) << " on " << row.res.ToString()
            << " but the table holds " << lock::LockModeName(held);
        if (!missing.str().empty()) msg << ", nothing on" << missing.str();
        AddViolation(msg.str());
      }
    }
  }
}

}  // namespace codlock::mc
