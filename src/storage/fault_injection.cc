#include "storage/fault_injection.h"

#include <algorithm>
#include <cstdlib>

#include "common/logging.h"

namespace chariots::storage {

namespace {

bool PathMatches(const std::string& path, const std::string& substr) {
  return substr.empty() || path.find(substr) != std::string::npos;
}

}  // namespace

void DiskFaultSchedule::AddRuleLocked(Kind kind, std::string path_substr,
                                      uint64_t nth, uint64_t keep_bytes) {
  Rule rule;
  rule.kind = kind;
  rule.path_substr = std::move(path_substr);
  rule.nth = nth == 0 ? 1 : nth;
  rule.keep_bytes = keep_bytes;
  rules_.push_back(std::move(rule));
}

void DiskFaultSchedule::TornWriteNth(std::string path_substr, uint64_t nth,
                                     uint64_t keep_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  AddRuleLocked(Kind::kTornWrite, std::move(path_substr), nth, keep_bytes);
}

void DiskFaultSchedule::FailWriteNth(std::string path_substr, uint64_t nth) {
  std::lock_guard<std::mutex> lock(mu_);
  AddRuleLocked(Kind::kFailWrite, std::move(path_substr), nth, 0);
}

void DiskFaultSchedule::FailSyncNth(std::string path_substr, uint64_t nth) {
  std::lock_guard<std::mutex> lock(mu_);
  AddRuleLocked(Kind::kFailSync, std::move(path_substr), nth, 0);
}

void DiskFaultSchedule::DropSyncNth(std::string path_substr, uint64_t nth) {
  std::lock_guard<std::mutex> lock(mu_);
  AddRuleLocked(Kind::kDropSync, std::move(path_substr), nth, 0);
}

Status DiskFaultSchedule::AddFromSpec(const std::string& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t start = 0;
  while (start < spec.size()) {
    size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    std::string rule = spec.substr(start, end - start);
    start = end + 1;
    if (rule.empty()) continue;

    size_t at = rule.find('@');
    if (at == std::string::npos) {
      return Status::InvalidArgument("disk fault rule missing '@': " + rule);
    }
    std::string kind_name = rule.substr(0, at);
    std::string rest = rule.substr(at + 1);

    // rest = path_substr[:nth[:keep_bytes]]; `?` draws from the seeded PRNG.
    std::string fields[3];
    size_t nfields = 0;
    size_t fstart = 0;
    while (nfields < 3) {
      size_t colon = rest.find(':', fstart);
      if (colon == std::string::npos) {
        fields[nfields++] = rest.substr(fstart);
        break;
      }
      fields[nfields++] = rest.substr(fstart, colon - fstart);
      fstart = colon + 1;
    }
    auto parse = [&](const std::string& field, uint64_t seeded_bound,
                     uint64_t fallback) -> uint64_t {
      if (field.empty()) return fallback;
      if (field == "?") return 1 + rng_.Uniform(seeded_bound);
      return std::strtoull(field.c_str(), nullptr, 10);
    };
    uint64_t nth = parse(nfields > 1 ? fields[1] : "", 8, 1);
    uint64_t keep = parse(nfields > 2 ? fields[2] : "", 32, 0);

    if (kind_name == "torn_write") {
      AddRuleLocked(Kind::kTornWrite, fields[0], nth, keep);
    } else if (kind_name == "fail_write") {
      AddRuleLocked(Kind::kFailWrite, fields[0], nth, 0);
    } else if (kind_name == "fail_sync") {
      AddRuleLocked(Kind::kFailSync, fields[0], nth, 0);
    } else if (kind_name == "drop_sync") {
      AddRuleLocked(Kind::kDropSync, fields[0], nth, 0);
    } else {
      return Status::InvalidArgument("unknown disk fault kind: " + kind_name);
    }
  }
  return Status::OK();
}

void DiskFaultSchedule::OnOpen(const std::string& path, uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  // Bytes present at open are treated as durable: recovery already ran over
  // them (or the test scripted their loss in an earlier crash).
  files_[path] = FileState{size, size};
}

DiskFaultSchedule::WriteDecision DiskFaultSchedule::OnWrite(
    const std::string& path, uint64_t len) {
  std::lock_guard<std::mutex> lock(mu_);
  WriteDecision decision{len, false};
  if (crashed_) {
    decision.fail = true;
    decision.keep_bytes = 0;
    return decision;
  }
  for (Rule& rule : rules_) {
    if (rule.kind != Kind::kTornWrite && rule.kind != Kind::kFailWrite) {
      continue;
    }
    if (!PathMatches(path, rule.path_substr)) continue;
    ++rule.matches;
    if (rule.fired || rule.matches != rule.nth) continue;
    rule.fired = true;
    ++injected_;
    crashed_ = true;
    decision.fail = true;
    decision.keep_bytes =
        rule.kind == Kind::kTornWrite ? std::min(rule.keep_bytes, len) : 0;
    LOG_WARN << "disk fault: "
             << (rule.kind == Kind::kTornWrite ? "torn write" : "failed write")
             << " on " << path << " (kept " << decision.keep_bytes << "/"
             << len << " bytes)";
    break;
  }
  auto it = files_.find(path);
  if (it != files_.end()) it->second.size += decision.keep_bytes;
  return decision;
}

DiskFaultSchedule::SyncDecision DiskFaultSchedule::OnSync(
    const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  SyncDecision decision;
  if (crashed_) {
    decision.fail = true;
    return decision;
  }
  for (Rule& rule : rules_) {
    if (rule.kind != Kind::kFailSync && rule.kind != Kind::kDropSync) {
      continue;
    }
    if (!PathMatches(path, rule.path_substr)) continue;
    ++rule.matches;
    if (rule.fired || rule.matches != rule.nth) continue;
    rule.fired = true;
    ++injected_;
    if (rule.kind == Kind::kFailSync) {
      crashed_ = true;
      decision.fail = true;
      LOG_WARN << "disk fault: failed sync on " << path;
    } else {
      decision.drop = true;
      LOG_WARN << "disk fault: silently dropped sync on " << path;
    }
    break;
  }
  if (!decision.fail && !decision.drop) {
    auto it = files_.find(path);
    if (it != files_.end()) it->second.synced = it->second.size;
  }
  return decision;
}

Status DiskFaultSchedule::OnTruncate(const std::string& path, uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) {
    return Status::IOError("injected disk fault: disk gone, truncate of " +
                           path + " failed");
  }
  auto it = files_.find(path);
  if (it == files_.end()) return Status::OK();
  it->second.size = size;
  it->second.synced = std::min(it->second.synced, size);
  return Status::OK();
}

Status DiskFaultSchedule::SimulateCrash() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [path, state] : files_) {
    if (state.synced >= state.size) continue;
    if (!FileExists(path)) continue;
    CHARIOTS_ASSIGN_OR_RETURN(File file, File::OpenAppendable(path));
    if (file.size() < state.synced) {
      return Status::Internal("tracked synced size exceeds file " + path);
    }
    LOG_WARN << "simulated crash: truncating " << path << " from "
             << file.size() << " to last synced size " << state.synced;
    CHARIOTS_RETURN_IF_ERROR(file.Truncate(state.synced));
  }
  files_.clear();
  crashed_ = false;
  return Status::OK();
}

bool DiskFaultSchedule::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

uint64_t DiskFaultSchedule::faults_injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return injected_;
}

void DiskFaultSchedule::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  rules_.clear();
  files_.clear();
  injected_ = 0;
  crashed_ = false;
}

// -------------------------------------------------------- FaultInjectingFile

Result<FaultInjectingFile> FaultInjectingFile::OpenAppendable(
    const std::string& path, DiskFaultSchedule* faults) {
  CHARIOTS_ASSIGN_OR_RETURN(File file, File::OpenAppendable(path));
  FaultInjectingFile out;
  out.path_ = path;
  out.faults_ = faults;
  if (faults != nullptr) faults->OnOpen(path, file.size());
  out.file_ = std::move(file);
  return out;
}

Status FaultInjectingFile::Append(std::string_view data) {
  if (faults_ == nullptr) return file_.Append(data);
  DiskFaultSchedule::WriteDecision decision =
      faults_->OnWrite(path_, data.size());
  if (decision.keep_bytes < data.size()) {
    if (decision.keep_bytes > 0) {
      CHARIOTS_RETURN_IF_ERROR(
          file_.Append(data.substr(0, decision.keep_bytes)));
    }
    return Status::IOError("injected disk fault: write lost on " + path_);
  }
  CHARIOTS_RETURN_IF_ERROR(file_.Append(data));
  if (decision.fail) {
    return Status::IOError("injected disk fault: write failed on " + path_);
  }
  return Status::OK();
}

Status FaultInjectingFile::AppendvAndSync(
    std::span<const std::string_view> parts, bool sync, IoEngine* engine) {
  if (faults_ == nullptr) return file_.Appendv(parts, sync, engine);

  uint64_t total = 0;
  for (std::string_view p : parts) total += p.size();
  DiskFaultSchedule::WriteDecision decision = faults_->OnWrite(path_, total);
  if (decision.keep_bytes < total) {
    if (decision.keep_bytes > 0) {
      // Torn write: the surviving prefix still goes through the engine so
      // the tear lands the same way real bytes would (vectored, batched).
      std::vector<std::string_view> kept;
      uint64_t left = decision.keep_bytes;
      for (std::string_view p : parts) {
        if (left == 0) break;
        size_t take = std::min<uint64_t>(left, p.size());
        kept.push_back(p.substr(0, take));
        left -= take;
      }
      CHARIOTS_RETURN_IF_ERROR(file_.Appendv(kept, /*sync=*/false, engine));
    }
    return Status::IOError("injected disk fault: write lost on " + path_);
  }
  CHARIOTS_RETURN_IF_ERROR(file_.Appendv(parts, /*sync=*/false, engine));
  if (decision.fail) {
    return Status::IOError("injected disk fault: write failed on " + path_);
  }
  if (!sync) return Status::OK();
  DiskFaultSchedule::SyncDecision sync_decision = faults_->OnSync(path_);
  if (sync_decision.fail) {
    return Status::IOError("injected disk fault: sync failed on " + path_);
  }
  if (sync_decision.drop) return Status::OK();  // the lying disk says yes
  return engine->Fsync(file_.fd());
}

Status FaultInjectingFile::ReadAt(uint64_t offset, size_t n,
                                  std::string* out) const {
  return file_.ReadAt(offset, n, out);
}

Status FaultInjectingFile::Sync() {
  if (faults_ == nullptr) return file_.Sync();
  DiskFaultSchedule::SyncDecision decision = faults_->OnSync(path_);
  if (decision.fail) {
    return Status::IOError("injected disk fault: sync failed on " + path_);
  }
  if (decision.drop) return Status::OK();  // the lying disk says yes
  return file_.Sync();
}

Status FaultInjectingFile::Truncate(uint64_t size) {
  if (faults_ != nullptr) {
    CHARIOTS_RETURN_IF_ERROR(faults_->OnTruncate(path_, size));
  }
  return file_.Truncate(size);
}

}  // namespace chariots::storage
