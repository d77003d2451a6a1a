// mv3c_analyze — the project's protocol analyzer (DESIGN §5j).
//
// A clang libTooling binary driven by compile_commands.json that enforces
// the conventions the MV3C repair protocol leans on. It absorbs the five
// clang-query AST rules (scripts/lint/rules/*.query, kept as the fallback
// for machines without clang dev headers) and adds four flow/protocol
// checks a stateless matcher cannot express:
//
//   lock_scope_io        blocking file I/O or system-allocator calls
//                        lexically inside a SpinLockGuard scope or inside a
//                        REQUIRES/ACQUIRE-annotated function body (the
//                        TruncateSegmentsBefore bug class from PR 8).
//   timestamp_discipline raw >>/&/| arithmetic on mv3c::Timestamp values,
//                        or epoch-vs-composed-TID comparisons, outside
//                        mvcc/timestamp.h and common/epoch_clock.h.
//   guarded_by_coverage  in any class that declares a capability member,
//                        every non-const, non-atomic data member must be
//                        GUARDED_BY-annotated, a lock/sync primitive, a
//                        type that owns its own lock, or suppressed.
//   atomic_memory_order  every std::atomic operation names its
//                        memory_order explicitly — no defaulted seq_cst.
//
// Suppressions: `// mv3c-lint: allow(rule[,rule...])` on the offending
// line, or as a whole-line comment applying to the next line. Unused or
// unknown-rule suppressions are themselves errors, so stale escapes cannot
// linger.
//
// Caching: per-TU results are stored under --cache-dir keyed on the
// compile command + tool version + rule set, validated against an MD5 of
// every file the TU visited; an unchanged TU is merged from cache without
// re-parsing.
//
// Exit codes match run_lint.sh: 0 clean, 1 findings (or bad suppressions),
// 2 setup/parse error.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "clang/AST/ASTConsumer.h"
#include "clang/AST/ASTContext.h"
#include "clang/AST/Attr.h"
#include "clang/AST/DeclCXX.h"
#include "clang/AST/DeclTemplate.h"
#include "clang/AST/ExprCXX.h"
#include "clang/AST/ParentMapContext.h"
#include "clang/AST/RecursiveASTVisitor.h"
#include "clang/Basic/OperatorKinds.h"
#include "clang/Basic/SourceManager.h"
#include "clang/Frontend/CompilerInstance.h"
#include "clang/Frontend/FrontendAction.h"
#include "clang/Tooling/ArgumentsAdjusters.h"
#include "clang/Tooling/CommonOptionsParser.h"
#include "clang/Tooling/CompilationDatabase.h"
#include "clang/Tooling/Tooling.h"
#include "llvm/ADT/StringRef.h"
#include "llvm/ADT/Twine.h"
#include "llvm/Support/CommandLine.h"
#include "llvm/Support/FileSystem.h"
#include "llvm/Support/JSON.h"
#include "llvm/Support/MD5.h"
#include "llvm/Support/MemoryBuffer.h"
#include "llvm/Support/Path.h"
#include "llvm/Support/Regex.h"
#include "llvm/Support/raw_ostream.h"

using namespace clang;

namespace {

// Bump on any rule-table / allowlist / visitor change: the version feeds
// the per-TU cache key, so stale caches cannot mask new findings.
constexpr const char kToolVersion[] = "mv3c_analyze-3";

// StringRef::startswith/endswith were renamed across the LLVM versions this
// tool must build against; slice + operator== is stable everywhere.
bool HasPrefix(llvm::StringRef s, llvm::StringRef p) {
  return s.size() >= p.size() && s.slice(0, p.size()) == p;
}
bool HasSuffix(llvm::StringRef s, llvm::StringRef p) {
  return s.size() >= p.size() && s.slice(s.size() - p.size(), s.size()) == p;
}

// ---------------------------------------------------------------------------
// Rule catalog
// ---------------------------------------------------------------------------

struct RuleInfo {
  const char* name;
  // Directories (relative to --root) the rule polices.
  const char* dirs_re;
  // Files inside those directories that are exempt ("" = none).
  const char* exempt_re;
  const char* summary;
};

// Order is the reporting order. The first five replicate the clang-query
// rules byte-for-byte in scope and exemptions; the last four are new.
const RuleInfo kRules[] = {
    {"no_raw_version_new", "^(src|bench|examples)/",
     "(^|/)mvcc/version_arena\\.(h|cc)$",
     "versions/records must go through VersionArena::Create/Destroy"},
    {"no_bare_lock_guard", "^src/", "",
     "SpinLock acquisitions must use SpinLockGuard (annotated), not "
     "std::lock_guard"},
    {"no_stats_outside_obs", "^(src|bench)/",
     "(^|/)src/obs/|(^|/)mvcc/version_arena\\.h$|(^|/)sv/sv_transaction\\.h$",
     "engine *Stats structs belong in src/obs/engine_stats.h"},
    {"no_raw_io_outside_wal", "^(src|bench)/", "(^|/)src/wal/",
     "durable file I/O is the WAL's monopoly"},
    {"no_global_ts_counter", "^(src|bench|examples)/",
     "(^|/)mvcc/transaction_manager\\.h$|(^|/)common/epoch_clock\\.h$",
     "no second timestamp authority outside the TID allocator"},
    {"lock_scope_io", "^(src|bench|examples)/", "",
     "no blocking I/O or heap calls inside a SpinLock critical section"},
    {"timestamp_discipline", "^(src|bench|examples)/",
     "(^|/)mvcc/timestamp\\.h$|(^|/)common/epoch_clock\\.h$",
     "composed TIDs are opaque outside timestamp.h: use "
     "TsEpoch/TsLane/ComposeTxnId"},
    {"guarded_by_coverage", "^src/", "",
     "every mutable member of a lock-owning class must be annotated, "
     "atomic, or suppressed"},
    {"atomic_memory_order", "^(src|bench|examples|tools)/", "",
     "atomic operations must name an explicit memory_order"},
};
constexpr int kNumRules = sizeof(kRules) / sizeof(kRules[0]);

// Explicit per-callee allowlist: rule exemptions narrower than a whole
// file. exempt_re (above) silences every finding of a rule in a file;
// an allowlist entry silences one *callee name* in matching paths, so the
// rest of the rule keeps firing there. Used for the serving front-end:
// socket sends are network I/O, not durable file I/O — the WAL monopoly
// (DESIGN §5f) covers bytes that claim durability — but an fwrite/fsync
// in src/server/ must still trip the rule (the lint selftest plants one).
struct AllowlistEntry {
  const char* rule;     // kRules[].name this entry narrows
  const char* path_re;  // root-relative paths it applies to
  const char* callee;   // the one function name it sanctions
};

const AllowlistEntry kAllowlist[] = {
    {"no_raw_io_outside_wal", "(^|/)src/server/", "send"},
    {"no_raw_io_outside_wal", "(^|/)src/server/", "sendto"},
    {"no_raw_io_outside_wal", "(^|/)src/server/", "sendmsg"},
};
constexpr int kNumAllowlist = sizeof(kAllowlist) / sizeof(kAllowlist[0]);

int RuleIndex(llvm::StringRef name) {
  for (int i = 0; i < kNumRules; ++i)
    if (name == kRules[i].name) return i;
  return -1;
}

// ---------------------------------------------------------------------------
// Findings / suppressions
// ---------------------------------------------------------------------------

struct Finding {
  std::string file;  // root-relative
  unsigned line = 0;
  unsigned col = 0;
  std::string rule;
  std::string message;

  std::string Key() const {
    return file + ":" + std::to_string(line) + ":" + std::to_string(col) +
           ":" + rule;
  }
};

struct Suppression {
  std::string file;       // root-relative
  unsigned comment_line;  // where the comment sits (identity for "unused")
  unsigned target_line;   // the line it suppresses
  std::vector<std::string> rules;
};

// Scans one file's raw text for suppression comments. `bad` receives
// findings for malformed/unknown-rule suppressions.
void ScanSuppressions(llvm::StringRef content, llvm::StringRef rel_path,
                      std::vector<Suppression>* out,
                      std::vector<Finding>* bad) {
  unsigned line_no = 0;
  llvm::StringRef rest = content;
  while (!rest.empty()) {
    ++line_no;
    llvm::StringRef line;
    std::tie(line, rest) = rest.split('\n');
    const size_t mark = line.find("mv3c-lint:");
    if (mark == llvm::StringRef::npos) continue;
    llvm::StringRef tail = line.substr(mark + strlen("mv3c-lint:")).ltrim();
    Finding malformed{rel_path.str(), line_no, 1, "suppression", ""};
    if (!HasPrefix(tail, "allow(")) {
      malformed.message = "malformed suppression: expected "
                          "'mv3c-lint: allow(rule[,rule...])'";
      bad->push_back(malformed);
      continue;
    }
    const size_t close = tail.find(')');
    if (close == llvm::StringRef::npos) {
      malformed.message = "malformed suppression: missing ')'";
      bad->push_back(malformed);
      continue;
    }
    llvm::StringRef list = tail.substr(strlen("allow("), close - strlen("allow("));
    Suppression s;
    s.file = rel_path.str();
    s.comment_line = line_no;
    // A comment-only line suppresses the next line; trailing comments
    // suppress their own line.
    llvm::StringRef before = line.substr(0, line.find("//"));
    s.target_line = before.trim().empty() ? line_no + 1 : line_no;
    llvm::SmallVector<llvm::StringRef, 4> parts;
    list.split(parts, ',', /*MaxSplit=*/-1, /*KeepEmpty=*/false);
    for (llvm::StringRef p : parts) {
      p = p.trim();
      if (p.empty()) continue;
      if (RuleIndex(p) < 0) {
        malformed.message =
            ("unknown rule '" + p + "' in suppression").str();
        bad->push_back(malformed);
        continue;
      }
      s.rules.push_back(p.str());
    }
    if (!s.rules.empty()) out->push_back(s);
  }
}

// ---------------------------------------------------------------------------
// Per-TU result
// ---------------------------------------------------------------------------

struct DepFile {
  std::string abs_path;
  std::string rel_path;  // empty when outside the root
  std::string md5;
};

struct TUResult {
  std::vector<Finding> findings;          // includes bad-suppression findings
  std::vector<Suppression> suppressions;  // declared in files this TU saw
  std::vector<DepFile> deps;
  bool parse_error = false;
};

std::string Md5Hex(llvm::StringRef data) {
  llvm::MD5 hash;
  hash.update(data);
  llvm::MD5::MD5Result r;
  hash.final(r);
  return r.digest().str().str();
}

// ---------------------------------------------------------------------------
// The AST visitor
// ---------------------------------------------------------------------------

struct SourceInterval {
  FileID fid;
  unsigned begin;
  unsigned end;
};

struct PendingIoCall {
  FileID fid;
  unsigned offset;
  std::string file;  // root-relative
  unsigned line;
  unsigned col;
  std::string what;  // called entity, for the message
};

class ProtocolVisitor : public RecursiveASTVisitor<ProtocolVisitor> {
 public:
  ProtocolVisitor(ASTContext& ctx, llvm::StringRef root, unsigned rule_mask,
                  TUResult& result)
      : ctx_(ctx),
        sm_(ctx.getSourceManager()),
        root_(root.str()),
        rule_mask_(rule_mask),
        result_(result),
        ts_counter_re_(
            "(ts|tid|txn|timestamp|commit)_?(seq|sequence|counter|ctr|gen)_*$"),
        rule_dirs_re_(),
        rule_exempt_re_() {
    for (int i = 0; i < kNumRules; ++i) {
      rule_dirs_re_.emplace_back(kRules[i].dirs_re);
      rule_exempt_re_.emplace_back(kRules[i].exempt_re);
    }
    for (int i = 0; i < kNumAllowlist; ++i) {
      allowlist_path_re_.emplace_back(kAllowlist[i].path_re);
    }
  }

  bool shouldVisitTemplateInstantiations() const { return false; }
  bool shouldVisitImplicitCode() const { return false; }

  // --- location / scoping helpers ---

  // Root-relative path for a location's expansion file, or "" when the
  // location is outside the root. Also records the file as a dependency
  // and triggers its one-time suppression scan.
  llvm::StringRef RelPath(SourceLocation loc) {
    if (loc.isInvalid()) return "";
    const FileID fid = sm_.getFileID(sm_.getExpansionLoc(loc));
    auto it = file_cache_.find(fid);
    if (it != file_cache_.end()) return it->second;
    std::string rel;
    if (const FileEntry* fe = sm_.getFileEntryForID(fid)) {
      llvm::SmallString<256> abs(fe->tryGetRealPathName());
      if (abs.empty()) {
        abs = fe->getName();
        llvm::sys::fs::make_absolute(abs);
        llvm::sys::path::remove_dots(abs, /*remove_dot_dot=*/true);
      }
      llvm::StringRef abs_ref(abs);
      if (HasPrefix(abs_ref, root_) &&
          abs_ref.size() > root_.size() && abs_ref[root_.size()] == '/') {
        rel = abs_ref.drop_front(root_.size() + 1).str();
      }
      DepFile dep;
      dep.abs_path = abs_ref.str();
      dep.rel_path = rel;
      bool ok = false;
      llvm::StringRef buf = sm_.getBufferData(fid, &ok);
      if (ok) {
        dep.md5 = Md5Hex(buf);
        if (!rel.empty() && scanned_.insert(rel).second) {
          ScanSuppressions(buf, rel, &result_.suppressions,
                           &result_.findings);
        }
      }
      if (seen_deps_.insert(dep.abs_path).second)
        result_.deps.push_back(std::move(dep));
    }
    return file_cache_.emplace(fid, std::move(rel)).first->second;
  }

  // True when `loc` is inside rule `r`'s directories and not exempt.
  bool InRuleScope(int r, SourceLocation loc, llvm::StringRef* rel_out) {
    if (!(rule_mask_ & (1u << r))) return false;
    llvm::StringRef rel = RelPath(loc);
    if (rel.empty()) return false;
    if (!rule_dirs_re_[r].match(rel)) return false;
    if (kRules[r].exempt_re[0] != '\0' && rule_exempt_re_[r].match(rel))
      return false;
    if (rel_out) *rel_out = rel;
    return true;
  }

  // True when an AllowlistEntry sanctions calling `callee` from `rel`
  // under rule `r`.
  bool Allowlisted(int r, llvm::StringRef rel, llvm::StringRef callee) {
    for (int i = 0; i < kNumAllowlist; ++i) {
      if (callee == kAllowlist[i].callee &&
          llvm::StringRef(kAllowlist[i].rule) == kRules[r].name &&
          allowlist_path_re_[i].match(rel)) {
        return true;
      }
    }
    return false;
  }

  void Report(int r, SourceLocation loc, llvm::StringRef rel,
              std::string message) {
    const PresumedLoc p = sm_.getPresumedLoc(sm_.getExpansionLoc(loc));
    Finding f;
    f.file = rel.str();
    f.line = p.isValid() ? p.getLine() : 0;
    f.col = p.isValid() ? p.getColumn() : 0;
    f.rule = kRules[r].name;
    f.message = std::move(message);
    result_.findings.push_back(std::move(f));
  }

  // --- type helpers ---

  static const CXXRecordDecl* RecordOf(QualType t) {
    if (const CXXRecordDecl* rd = t->getAsCXXRecordDecl()) return rd;
    return nullptr;
  }

  // Resolves a member's type to a class definition whose members we can
  // inspect, looking through arrays and (for dependent types inside class
  // template patterns) through TemplateSpecializationType sugar to the
  // template's pattern definition. Returns null for non-class types and
  // for types we cannot see into (template parameters).
  const CXXRecordDecl* ResolveRecordForAudit(QualType t) {
    while (const ArrayType* at = ctx_.getAsArrayType(t))
      t = at->getElementType();
    t = t.getNonReferenceType();
    if (const CXXRecordDecl* rd = t->getAsCXXRecordDecl()) {
      if (rd->hasDefinition()) return rd->getDefinition();
      if (const auto* spec = llvm::dyn_cast<ClassTemplateSpecializationDecl>(rd))
        return spec->getSpecializedTemplate()->getTemplatedDecl();
      return rd;
    }
    if (const auto* tst = t->getAs<TemplateSpecializationType>()) {
      if (const auto* ctd = llvm::dyn_cast_or_null<ClassTemplateDecl>(
              tst->getTemplateName().getAsTemplateDecl()))
        return ctd->getTemplatedDecl();
    }
    return nullptr;
  }

  static bool HasCapabilityAttr(const CXXRecordDecl* rd) {
    return rd != nullptr &&
           (rd->hasAttr<CapabilityAttr>() || rd->hasAttr<ScopedLockableAttr>());
  }

  bool IsStdSyncPrimitive(QualType t) {
    const CXXRecordDecl* rd = RecordOf(t);
    if (!rd) return false;
    const std::string qn = rd->getQualifiedNameAsString();
    static const char* const kNames[] = {
        "std::mutex", "std::timed_mutex", "std::recursive_mutex",
        "std::recursive_timed_mutex", "std::shared_mutex",
        "std::shared_timed_mutex", "std::condition_variable",
        "std::condition_variable_any", "std::once_flag", "std::thread",
        "std::jthread"};
    for (const char* n : kNames)
      if (qn == n) return true;
    return false;
  }

  bool IsAtomicType(QualType t) {
    if (t->isAtomicType()) return true;  // _Atomic
    const CXXRecordDecl* rd = RecordOf(t);
    if (!rd) {
      if (const auto* tst = t->getAs<TemplateSpecializationType>()) {
        if (const TemplateDecl* td = tst->getTemplateName().getAsTemplateDecl())
          return td->getQualifiedNameAsString() == "std::atomic";
      }
      return false;
    }
    const std::string qn = rd->getQualifiedNameAsString();
    return qn == "std::atomic" || qn == "std::atomic_flag" ||
           qn == "std::atomic_ref";
  }

  // True when the record is std::atomic<...> (for the name-based timestamp
  // counter rule, which matches atomics only).
  bool IsStdAtomicSpecialization(QualType t) {
    const auto* rd = llvm::dyn_cast_or_null<ClassTemplateSpecializationDecl>(
        t->getAsCXXRecordDecl());
    return rd != nullptr && rd->getQualifiedNameAsString() == "std::atomic";
  }

  // A type every member of which is atomic, const, or itself
  // self-synchronizing — safe to hold unannotated (EpochClock, the
  // active-slot array). Depth-limited; conservative on anything unusual.
  bool IsSelfSynchronizing(const CXXRecordDecl* rd, int depth = 0) {
    if (rd == nullptr || depth > 3 || !rd->hasDefinition()) return false;
    rd = rd->getDefinition();
    for (const CXXBaseSpecifier& base : rd->bases()) {
      const CXXRecordDecl* brd = ResolveRecordForAudit(base.getType());
      if (!IsSelfSynchronizing(brd, depth + 1)) return false;
    }
    for (const FieldDecl* f : rd->fields()) {
      QualType t = f->getType();
      while (const ArrayType* at = ctx_.getAsArrayType(t))
        t = at->getElementType();
      if (IsAtomicType(t)) continue;
      if (t.isConstQualified()) continue;
      const CXXRecordDecl* frd = ResolveRecordForAudit(t);
      if (frd != nullptr && IsSelfSynchronizing(frd, depth + 1)) continue;
      return false;
    }
    return true;
  }

  // Does the class directly declare a capability (SpinLock) or standard
  // mutex member — i.e. does it own a lock that could guard its state?
  bool DeclaresLockMember(const CXXRecordDecl* rd) {
    if (rd == nullptr || !rd->hasDefinition()) return false;
    rd = rd->getDefinition();
    for (const FieldDecl* f : rd->fields()) {
      QualType t = f->getType();
      while (const ArrayType* at = ctx_.getAsArrayType(t))
        t = at->getElementType();
      if (HasCapabilityAttr(ResolveRecordForAudit(t))) return true;
      if (IsStdSyncPrimitive(t)) return true;
    }
    return false;
  }

  // Is the as-written type (through any chain of typedefs) the
  // mv3c::Timestamp alias?
  bool IsTimestampAsWritten(QualType qt) {
    while (true) {
      if (const auto* tt = qt->getAs<TypedefType>()) {
        const TypedefNameDecl* td = tt->getDecl();
        if (td->getName() == "Timestamp") {
          const DeclContext* dc = td->getDeclContext();
          if (const auto* ns = llvm::dyn_cast<NamespaceDecl>(dc))
            if (ns->getName() == "mv3c") return true;
        }
        qt = td->getUnderlyingType();
        continue;
      }
      const QualType next = qt.getSingleStepDesugaredType(ctx_);
      if (next == qt) return false;
      qt = next;
    }
  }

  // Scoped lock guard: any record carrying SCOPED_CAPABILITY (our
  // SpinLockGuard) or a std lock wrapper instantiated over a capability.
  bool IsScopedGuardType(QualType t) {
    const CXXRecordDecl* rd = t->getAsCXXRecordDecl();
    if (rd == nullptr) return false;
    if (rd->hasAttr<ScopedLockableAttr>()) return true;
    const auto* spec = llvm::dyn_cast<ClassTemplateSpecializationDecl>(rd);
    if (spec == nullptr) return false;
    const std::string qn = spec->getQualifiedNameAsString();
    if (qn != "std::lock_guard" && qn != "std::unique_lock" &&
        qn != "std::scoped_lock" && qn != "std::shared_lock")
      return false;
    const TemplateArgumentList& args = spec->getTemplateArgs();
    for (unsigned i = 0; i < args.size(); ++i) {
      if (args[i].getKind() != TemplateArgument::Type) continue;
      if (HasCapabilityAttr(RecordOf(args[i].getAsType()))) return true;
    }
    return false;
  }

  // --- interval bookkeeping for lock_scope_io ---

  void AddInterval(std::vector<SourceInterval>& out, SourceLocation b,
                   SourceLocation e) {
    if (b.isInvalid() || e.isInvalid()) return;
    const auto db = sm_.getDecomposedExpansionLoc(b);
    const auto de = sm_.getDecomposedExpansionLoc(e);
    if (db.first != de.first) return;
    out.push_back({db.first, db.second, de.second});
  }

  bool InAnyInterval(const std::vector<SourceInterval>& ivs, FileID fid,
                     unsigned off) const {
    for (const SourceInterval& iv : ivs)
      if (iv.fid == fid && off > iv.begin && off < iv.end) return true;
    return false;
  }

  // --- visitors ---

  // no_raw_version_new (new side) + lock_scope_io heap-op collection.
  bool VisitCXXNewExpr(CXXNewExpr* e) {
    const SourceLocation loc = e->getBeginLoc();
    llvm::StringRef rel;
    if (InRuleScope(kRawVersionNew, loc, &rel)) {
      if (const CXXRecordDecl* rd = RecordOf(e->getAllocatedType())) {
        const llvm::StringRef n = rd->getName();
        if (n == "VersionBase" || n == "Version" || n == "CommittedRecord")
          Report(kRawVersionNew, loc, rel,
                 ("raw new of " + n +
                  ": allocate through VersionArena::Create/CreateSibling")
                     .str());
      }
    }
    // Placement new is not an allocator call.
    if (e->getNumPlacementArgs() == 0)
      NoteIoCall(loc, "operator new");
    return true;
  }

  bool VisitCXXDeleteExpr(CXXDeleteExpr* e) {
    const SourceLocation loc = e->getBeginLoc();
    llvm::StringRef rel;
    if (InRuleScope(kRawVersionNew, loc, &rel)) {
      if (const CXXRecordDecl* rd = RecordOf(e->getDestroyedType())) {
        const llvm::StringRef n = rd->getName();
        if (n == "VersionBase" || n == "Version" || n == "CommittedRecord")
          Report(kRawVersionNew, loc, rel,
                 ("raw delete of " + n +
                  ": destroy through VersionArena::Destroy")
                     .str());
      }
    }
    NoteIoCall(loc, "operator delete");
    return true;
  }

  // no_bare_lock_guard + lock guard interval collection + global ts
  // counter (global side).
  bool VisitVarDecl(VarDecl* d) {
    const SourceLocation loc = d->getLocation();
    llvm::StringRef rel;
    if (InRuleScope(kBareLockGuard, loc, &rel)) {
      if (const auto* spec = llvm::dyn_cast_or_null<
              ClassTemplateSpecializationDecl>(d->getType()->getAsCXXRecordDecl())) {
        if (spec->getQualifiedNameAsString() == "std::lock_guard") {
          const TemplateArgumentList& args = spec->getTemplateArgs();
          if (args.size() >= 1 && args[0].getKind() == TemplateArgument::Type) {
            if (const CXXRecordDecl* arg = RecordOf(args[0].getAsType())) {
              if (arg->getName() == "SpinLock")
                Report(kBareLockGuard, loc, rel,
                       "std::lock_guard<SpinLock> is invisible to "
                       "thread-safety analysis: use SpinLockGuard");
            }
          }
        }
      }
    }
    if (d->hasGlobalStorage() && InRuleScope(kGlobalTsCounter, loc, &rel)) {
      if (IsStdAtomicSpecialization(d->getType()) &&
          ts_counter_re_.match(d->getName()))
        Report(kGlobalTsCounter, loc, rel,
               ("atomic global '" + d->getName() +
                "' looks like a second timestamp authority (DESIGN §5h): "
                "commit TIDs come only from the TID allocator")
                   .str());
    }
    return true;
  }

  // Guard scopes: a SpinLockGuard declaration covers the rest of its
  // enclosing compound statement.
  bool VisitDeclStmt(DeclStmt* ds) {
    for (const Decl* d : ds->decls()) {
      const auto* vd = llvm::dyn_cast<VarDecl>(d);
      if (vd == nullptr || !vd->hasLocalStorage()) continue;
      if (!IsScopedGuardType(vd->getType())) continue;
      const auto parents = ctx_.getParents(*ds);
      if (parents.empty()) continue;
      if (const auto* cs = parents[0].get<CompoundStmt>())
        AddInterval(guard_intervals_, ds->getEndLoc(), cs->getRBracLoc());
    }
    return true;
  }

  // no_global_ts_counter (field side).
  bool VisitFieldDecl(FieldDecl* d) {
    const SourceLocation loc = d->getLocation();
    llvm::StringRef rel;
    if (InRuleScope(kGlobalTsCounter, loc, &rel)) {
      if (IsStdAtomicSpecialization(d->getType()) &&
          ts_counter_re_.match(d->getName()))
        Report(kGlobalTsCounter, loc, rel,
               ("atomic field '" + d->getName() +
                "' looks like a second timestamp authority (DESIGN §5h): "
                "commit TIDs come only from the TID allocator")
                   .str());
    }
    return true;
  }

  // no_stats_outside_obs + guarded_by_coverage.
  bool VisitCXXRecordDecl(CXXRecordDecl* rd) {
    if (!rd->isThisDeclarationADefinition()) return true;
    const SourceLocation loc = rd->getLocation();
    llvm::StringRef rel;
    if (rd->isStruct() && InRuleScope(kStatsOutsideObs, loc, &rel)) {
      if (HasSuffix(rd->getName(), "Stats"))
        Report(kStatsOutsideObs, loc, rel,
               ("struct " + rd->getName() +
                " forks the metrics surface: engine counters belong in "
                "src/obs/engine_stats.h")
                   .str());
    }
    if (InRuleScope(kGuardedByCoverage, loc, &rel))
      AuditGuardedByCoverage(rd, rel);
    return true;
  }

  void AuditGuardedByCoverage(const CXXRecordDecl* rd, llvm::StringRef rel) {
    // Scope trigger: the class itself declares a capability member (our
    // SpinLock). std::mutex members are deliberately NOT a trigger — the
    // libstdc++ mutex carries no capability attribute, so annotating
    // fields against it would break -Werror=thread-safety-analysis.
    bool has_capability = false;
    for (const FieldDecl* f : rd->fields()) {
      QualType t = f->getType();
      while (const ArrayType* at = ctx_.getAsArrayType(t))
        t = at->getElementType();
      if (HasCapabilityAttr(ResolveRecordForAudit(t))) {
        has_capability = true;
        break;
      }
    }
    if (!has_capability) return;

    for (const FieldDecl* f : rd->fields()) {
      QualType t = f->getType();
      while (const ArrayType* at = ctx_.getAsArrayType(t))
        t = at->getElementType();
      if (f->hasAttr<GuardedByAttr>() || f->hasAttr<PtGuardedByAttr>())
        continue;
      if (t.isConstQualified() || t->isReferenceType()) continue;
      if (IsAtomicType(t)) continue;
      const CXXRecordDecl* frd = ResolveRecordForAudit(t);
      if (HasCapabilityAttr(frd)) continue;      // the lock itself
      if (IsStdSyncPrimitive(t)) continue;       // mutexes, cvs, threads
      if (DeclaresLockMember(frd)) continue;     // owns its own lock
      if (IsSelfSynchronizing(frd)) continue;    // all-atomic/const type
      Report(kGuardedByCoverage, f->getLocation(), rel,
             ("member '" + f->getName() + "' of lock-owning class '" +
              rd->getName() +
              "' is neither GUARDED_BY-annotated, const, atomic, nor "
              "self-synchronizing")
                 .str());
    }
  }

  // no_raw_io_outside_wal + lock_scope_io call collection.
  bool VisitCallExpr(CallExpr* e) {
    const FunctionDecl* callee = e->getDirectCallee();
    if (callee == nullptr) return true;
    const SourceLocation loc = e->getBeginLoc();

    if (const OverloadedOperatorKind op = callee->getOverloadedOperator();
        op == OO_New || op == OO_Array_New || op == OO_Delete ||
        op == OO_Array_Delete) {
      NoteIoCall(loc, op == OO_New || op == OO_Array_New ? "operator new"
                                                         : "operator delete");
      return true;
    }
    if (callee->getIdentifier() == nullptr || callee->isCXXClassMember())
      return true;
    const llvm::StringRef name = callee->getName();

    static const char* const kRawIo[] = {"write",  "fwrite",  "fsync",
                                         "fdatasync", "pwrite", "pwritev",
                                         "writev", "sync_file_range",
                                         "send",   "sendto",  "sendmsg"};
    llvm::StringRef rel;
    for (const char* n : kRawIo) {
      if (name == n && InRuleScope(kRawIoOutsideWal, loc, &rel) &&
          !Allowlisted(kRawIoOutsideWal, rel, name)) {
        Report(kRawIoOutsideWal, loc, rel,
               ("raw " + name +
                " outside src/wal/: durable bytes must flow through "
                "LogManager (DESIGN §5f)")
                   .str());
        break;
      }
    }

    // The lock-scope set is broader: any blocking file-descriptor call or
    // system-allocator entry point. fprintf/printf stay allowed — the
    // diagnostic-streams policy, same as no_raw_io_outside_wal.
    static const char* const kBlocking[] = {
        "write",   "fwrite",   "fsync",     "fdatasync",     "pwrite",
        "pwritev", "writev",   "sync_file_range",            "read",
        "pread",   "fread",    "open",      "openat",        "creat",
        "close",   "fopen",    "fclose",    "fflush",        "unlink",
        "unlinkat", "rename",  "renameat",  "ftruncate",     "truncate",
        "fallocate", "mkdir",  "rmdir",     "opendir",       "closedir",
        "malloc",  "calloc",   "realloc",   "free",          "posix_memalign",
        "aligned_alloc", "mmap", "munmap",  "usleep",        "nanosleep",
        "sleep",   "send",     "sendto",    "sendmsg",       "recv",
        "recvfrom", "recvmsg"};
    for (const char* n : kBlocking) {
      if (name == n) {
        NoteIoCall(loc, name.str());
        break;
      }
    }
    return true;
  }

  // REQUIRES/ACQUIRE function bodies: everything inside runs with a
  // capability held by contract.
  bool VisitFunctionDecl(FunctionDecl* fd) {
    if (!fd->doesThisDeclarationHaveABody()) return true;
    if (!fd->hasAttr<RequiresCapabilityAttr>() &&
        !fd->hasAttr<AcquireCapabilityAttr>())
      return true;
    if (const Stmt* body = fd->getBody())
      AddInterval(requires_intervals_, body->getBeginLoc(), body->getEndLoc());
    return true;
  }

  // atomic_memory_order: member calls with a defaulted memory_order
  // argument, implicit conversion reads, and operator forms.
  bool VisitCXXMemberCallExpr(CXXMemberCallExpr* e) {
    const CXXMethodDecl* md = e->getMethodDecl();
    if (md == nullptr || !IsAtomicParent(md)) return true;
    const SourceLocation loc = e->getBeginLoc();
    llvm::StringRef rel;
    if (!InRuleScope(kAtomicMemoryOrder, loc, &rel)) return true;
    if (llvm::isa<CXXConversionDecl>(md)) {
      Report(kAtomicMemoryOrder, loc, rel,
             "implicit atomic read (conversion operator) is a seq_cst "
             "load: call load() with an explicit memory_order");
      return true;
    }
    for (unsigned i = 0; i < e->getNumArgs(); ++i) {
      const Expr* arg = e->getArg(i);
      if (!llvm::isa<CXXDefaultArgExpr>(arg)) continue;
      if (!IsMemoryOrderType(arg->getType())) continue;
      Report(kAtomicMemoryOrder, loc, rel,
             ("atomic " + md->getNameAsString() +
              " relies on the defaulted seq_cst memory order: name the "
              "order explicitly"));
      break;
    }
    return true;
  }

  bool VisitCXXOperatorCallExpr(CXXOperatorCallExpr* e) {
    const auto* md = llvm::dyn_cast_or_null<CXXMethodDecl>(e->getDirectCallee());
    if (md == nullptr || !IsAtomicParent(md)) return true;
    if (llvm::isa<CXXConversionDecl>(md)) return true;  // handled above
    const SourceLocation loc = e->getBeginLoc();
    llvm::StringRef rel;
    if (!InRuleScope(kAtomicMemoryOrder, loc, &rel)) return true;
    Report(kAtomicMemoryOrder, loc, rel,
           ("atomic operator" +
            std::string(getOperatorSpelling(e->getOperator())) +
            " is an implicit seq_cst operation: use "
            "load/store/fetch_* with an explicit memory_order"));
    return true;
  }

  // timestamp_discipline.
  bool VisitBinaryOperator(BinaryOperator* op) {
    const SourceLocation loc = op->getOperatorLoc();
    llvm::StringRef rel;
    if (!InRuleScope(kTimestampDiscipline, loc, &rel)) return true;
    const Expr* lhs = op->getLHS()->IgnoreParenImpCasts();
    const Expr* rhs = op->getRHS()->IgnoreParenImpCasts();
    const bool l_ts = IsTimestampAsWritten(lhs->getType());
    const bool r_ts = IsTimestampAsWritten(rhs->getType());

    switch (op->getOpcode()) {
      case BO_Shl: case BO_Shr: case BO_And: case BO_Or: case BO_Xor:
      case BO_ShlAssign: case BO_ShrAssign: case BO_AndAssign:
      case BO_OrAssign: case BO_XorAssign:
        if (l_ts || r_ts)
          Report(kTimestampDiscipline, loc, rel,
                 "raw bit arithmetic on a composed mv3c::Timestamp: use "
                 "TsEpoch/TsLane/ComposeTxnId (DESIGN §5h)");
        return true;
      case BO_LT: case BO_GT: case BO_LE: case BO_GE:
      case BO_EQ: case BO_NE:
        if (l_ts != r_ts) {
          const Expr* other = l_ts ? rhs : lhs;
          if (LooksLikeEpochValue(other))
            Report(kTimestampDiscipline, loc, rel,
                   "comparing a composed mv3c::Timestamp against an epoch "
                   "value: project with TsEpoch() first (DESIGN §5h)");
        }
        return true;
      default:
        return true;
    }
  }

  // Post-traversal: match collected blocking calls against lock scopes.
  void Finalize() {
    for (const PendingIoCall& c : io_calls_) {
      const bool in_guard = InAnyInterval(guard_intervals_, c.fid, c.offset);
      const bool in_requires =
          InAnyInterval(requires_intervals_, c.fid, c.offset);
      if (!in_guard && !in_requires) continue;
      Finding f;
      f.file = c.file;
      f.line = c.line;
      f.col = c.col;
      f.rule = kRules[kLockScopeIo].name;
      f.message = c.what +
                  (in_guard ? " called inside a SpinLockGuard scope"
                            : " called in a REQUIRES/ACQUIRE function") +
                  ": blocking I/O and allocator calls must not run under a "
                  "spinlock (DESIGN §5j)";
      result_.findings.push_back(std::move(f));
    }
  }

 private:
  enum {
    kRawVersionNew = 0,
    kBareLockGuard = 1,
    kStatsOutsideObs = 2,
    kRawIoOutsideWal = 3,
    kGlobalTsCounter = 4,
    kLockScopeIo = 5,
    kTimestampDiscipline = 6,
    kGuardedByCoverage = 7,
    kAtomicMemoryOrder = 8,
  };

  static bool IsAtomicParent(const CXXMethodDecl* md) {
    const CXXRecordDecl* parent = md->getParent();
    if (parent == nullptr) return false;
    const std::string qn = parent->getQualifiedNameAsString();
    return qn == "std::atomic" || qn == "std::atomic_flag" ||
           qn == "std::atomic_ref" || qn == "std::__atomic_base" ||
           qn == "std::__atomic_float";
  }

  static bool IsMemoryOrderType(QualType t) {
    if (const auto* et = t->getAs<EnumType>()) {
      const std::string qn = et->getDecl()->getQualifiedNameAsString();
      return qn == "std::memory_order";
    }
    return false;
  }

  bool LooksLikeEpochValue(const Expr* e) {
    if (const auto* call = llvm::dyn_cast<CallExpr>(e)) {
      if (const FunctionDecl* fd = call->getDirectCallee())
        if (fd->getIdentifier() != nullptr && fd->getName() == "TsEpoch")
          return true;
      return false;
    }
    llvm::StringRef name;
    if (const auto* dre = llvm::dyn_cast<DeclRefExpr>(e))
      name = dre->getDecl()->getName();
    else if (const auto* me = llvm::dyn_cast<MemberExpr>(e))
      name = me->getMemberDecl()->getName();
    if (name.empty()) return false;
    if (IsTimestampAsWritten(e->getType())) return false;
    return name.contains_insensitive("epoch") && e->getType()->isIntegerType();
  }

  void NoteIoCall(SourceLocation loc, std::string what) {
    llvm::StringRef rel;
    if (!InRuleScope(kLockScopeIo, loc, &rel)) return;
    const auto d = sm_.getDecomposedExpansionLoc(loc);
    const PresumedLoc p = sm_.getPresumedLoc(sm_.getExpansionLoc(loc));
    PendingIoCall c;
    c.fid = d.first;
    c.offset = d.second;
    c.file = rel.str();
    c.line = p.isValid() ? p.getLine() : 0;
    c.col = p.isValid() ? p.getColumn() : 0;
    c.what = std::move(what);
    io_calls_.push_back(std::move(c));
  }

  ASTContext& ctx_;
  SourceManager& sm_;
  std::string root_;
  unsigned rule_mask_;
  TUResult& result_;
  llvm::Regex ts_counter_re_;
  std::vector<llvm::Regex> rule_dirs_re_;
  std::vector<llvm::Regex> rule_exempt_re_;
  std::vector<llvm::Regex> allowlist_path_re_;
  std::map<FileID, std::string> file_cache_;
  std::set<std::string> scanned_;
  std::set<std::string> seen_deps_;
  std::vector<SourceInterval> guard_intervals_;
  std::vector<SourceInterval> requires_intervals_;
  std::vector<PendingIoCall> io_calls_;
};

// ---------------------------------------------------------------------------
// Frontend plumbing
// ---------------------------------------------------------------------------

class ProtocolConsumer : public ASTConsumer {
 public:
  ProtocolConsumer(llvm::StringRef root, unsigned rule_mask, TUResult& result)
      : root_(root.str()), rule_mask_(rule_mask), result_(result) {}

  void HandleTranslationUnit(ASTContext& ctx) override {
    ProtocolVisitor v(ctx, root_, rule_mask_, result_);
    v.TraverseDecl(ctx.getTranslationUnitDecl());
    v.Finalize();
  }

 private:
  std::string root_;
  unsigned rule_mask_;
  TUResult& result_;
};

class ProtocolAction : public ASTFrontendAction {
 public:
  ProtocolAction(llvm::StringRef root, unsigned rule_mask, TUResult& result)
      : root_(root.str()), rule_mask_(rule_mask), result_(result) {}

  std::unique_ptr<ASTConsumer> CreateASTConsumer(CompilerInstance&,
                                                 llvm::StringRef) override {
    return std::make_unique<ProtocolConsumer>(root_, rule_mask_, result_);
  }

 private:
  std::string root_;
  unsigned rule_mask_;
  TUResult& result_;
};

class ProtocolActionFactory : public tooling::FrontendActionFactory {
 public:
  ProtocolActionFactory(llvm::StringRef root, unsigned rule_mask,
                        TUResult& result)
      : root_(root.str()), rule_mask_(rule_mask), result_(result) {}

  std::unique_ptr<FrontendAction> create() override {
    return std::make_unique<ProtocolAction>(root_, rule_mask_, result_);
  }

 private:
  std::string root_;
  unsigned rule_mask_;
  TUResult& result_;
};

// ---------------------------------------------------------------------------
// Cache
// ---------------------------------------------------------------------------

std::string CacheKey(const tooling::CompileCommand& cmd, unsigned rule_mask) {
  llvm::MD5 hash;
  hash.update(kToolVersion);
  hash.update("|");
  hash.update(std::to_string(rule_mask));
  hash.update("|");
  hash.update(cmd.Directory);
  for (const std::string& a : cmd.CommandLine) {
    hash.update("|");
    hash.update(a);
  }
  hash.update("|");
  hash.update(cmd.Filename);
  llvm::MD5::MD5Result r;
  hash.final(r);
  return r.digest().str().str();
}

llvm::json::Object ToJson(const TUResult& r) {
  llvm::json::Array findings;
  for (const Finding& f : r.findings)
    findings.push_back(llvm::json::Object{{"file", f.file},
                                          {"line", static_cast<int64_t>(f.line)},
                                          {"col", static_cast<int64_t>(f.col)},
                                          {"rule", f.rule},
                                          {"message", f.message}});
  llvm::json::Array supps;
  for (const Suppression& s : r.suppressions) {
    llvm::json::Array rules;
    for (const std::string& rl : s.rules) rules.push_back(rl);
    supps.push_back(llvm::json::Object{
        {"file", s.file},
        {"comment_line", static_cast<int64_t>(s.comment_line)},
        {"target_line", static_cast<int64_t>(s.target_line)},
        {"rules", std::move(rules)}});
  }
  llvm::json::Array deps;
  for (const DepFile& d : r.deps)
    deps.push_back(llvm::json::Object{
        {"abs", d.abs_path}, {"rel", d.rel_path}, {"md5", d.md5}});
  return llvm::json::Object{{"findings", std::move(findings)},
                            {"suppressions", std::move(supps)},
                            {"deps", std::move(deps)}};
}

bool FromJson(const llvm::json::Object& o, TUResult* r) {
  const llvm::json::Array* findings = o.getArray("findings");
  const llvm::json::Array* supps = o.getArray("suppressions");
  const llvm::json::Array* deps = o.getArray("deps");
  if (findings == nullptr || supps == nullptr || deps == nullptr) return false;
  for (const llvm::json::Value& v : *findings) {
    const llvm::json::Object* fo = v.getAsObject();
    if (fo == nullptr) return false;
    Finding f;
    f.file = fo->getString("file").value_or("").str();
    f.line = static_cast<unsigned>(fo->getInteger("line").value_or(0));
    f.col = static_cast<unsigned>(fo->getInteger("col").value_or(0));
    f.rule = fo->getString("rule").value_or("").str();
    f.message = fo->getString("message").value_or("").str();
    r->findings.push_back(std::move(f));
  }
  for (const llvm::json::Value& v : *supps) {
    const llvm::json::Object* so = v.getAsObject();
    if (so == nullptr) return false;
    Suppression s;
    s.file = so->getString("file").value_or("").str();
    s.comment_line =
        static_cast<unsigned>(so->getInteger("comment_line").value_or(0));
    s.target_line =
        static_cast<unsigned>(so->getInteger("target_line").value_or(0));
    const llvm::json::Array* rules = so->getArray("rules");
    if (rules == nullptr) return false;
    for (const llvm::json::Value& rv : *rules)
      s.rules.push_back(rv.getAsString().value_or("").str());
    r->suppressions.push_back(std::move(s));
  }
  for (const llvm::json::Value& v : *deps) {
    const llvm::json::Object* dobj = v.getAsObject();
    if (dobj == nullptr) return false;
    DepFile d;
    d.abs_path = dobj->getString("abs").value_or("").str();
    d.rel_path = dobj->getString("rel").value_or("").str();
    d.md5 = dobj->getString("md5").value_or("").str();
    r->deps.push_back(std::move(d));
  }
  return true;
}

// A cached entry is fresh when every dependency still hashes the same.
bool DepsFresh(const TUResult& r) {
  for (const DepFile& d : r.deps) {
    auto buf = llvm::MemoryBuffer::getFile(d.abs_path);
    if (!buf) return false;
    if (Md5Hex((*buf)->getBuffer()) != d.md5) return false;
  }
  return true;
}

bool LoadCache(llvm::StringRef dir, llvm::StringRef key, TUResult* r) {
  llvm::SmallString<256> path(dir);
  llvm::sys::path::append(path, key + ".json");
  auto buf = llvm::MemoryBuffer::getFile(path);
  if (!buf) return false;
  auto parsed = llvm::json::parse((*buf)->getBuffer());
  if (!parsed) {
    llvm::consumeError(parsed.takeError());
    return false;
  }
  const llvm::json::Object* o = parsed->getAsObject();
  if (o == nullptr) return false;
  // Parse into a scratch result so a malformed or stale entry cannot leave
  // partial state behind for the live analysis to append onto.
  TUResult tmp;
  if (!FromJson(*o, &tmp) || !DepsFresh(tmp)) return false;
  *r = std::move(tmp);
  return true;
}

void StoreCache(llvm::StringRef dir, llvm::StringRef key, const TUResult& r) {
  if (llvm::sys::fs::create_directories(dir)) return;
  llvm::SmallString<256> path(dir);
  llvm::sys::path::append(path, key + ".json");
  std::error_code ec;
  llvm::raw_fd_ostream os(path, ec);
  if (ec) return;
  os << llvm::json::Value(ToJson(r));
}

// ---------------------------------------------------------------------------
// Resource dir discovery (out-of-tree libTooling binaries don't find the
// builtin headers on their own).
// ---------------------------------------------------------------------------

std::string FindResourceDir() {
  if (const char* env = getenv("MV3C_CLANG_RESOURCE_DIR")) return env;
#if defined(MV3C_CLANG_RESOURCE_DIR_DEFAULT)
  if (llvm::sys::fs::exists(MV3C_CLANG_RESOURCE_DIR_DEFAULT "/include/stddef.h"))
    return MV3C_CLANG_RESOURCE_DIR_DEFAULT;
#endif
#if defined(MV3C_LLVM_LIB_DIR)
  // Scan <llvm-libdir>/clang/* for a version dir holding builtin headers.
  std::error_code ec;
  const std::string base = std::string(MV3C_LLVM_LIB_DIR) + "/clang";
  for (llvm::sys::fs::directory_iterator it(base, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (llvm::sys::fs::exists(it->path() + "/include/stddef.h"))
      return it->path();
  }
#endif
  return "";
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

llvm::cl::OptionCategory gCategory("mv3c_analyze options");
llvm::cl::opt<std::string> gRoot(
    "root", llvm::cl::desc("Repository root rules are scoped to (default: cwd)"),
    llvm::cl::init(""), llvm::cl::cat(gCategory));
llvm::cl::opt<bool> gJson("json", llvm::cl::desc("Emit JSON results"),
                          llvm::cl::init(false), llvm::cl::cat(gCategory));
llvm::cl::opt<std::string> gCacheDir(
    "cache-dir", llvm::cl::desc("Per-TU result cache directory"),
    llvm::cl::init(""), llvm::cl::cat(gCategory));
llvm::cl::opt<bool> gNoCache("no-cache",
                             llvm::cl::desc("Disable the per-TU result cache"),
                             llvm::cl::init(false), llvm::cl::cat(gCategory));
llvm::cl::opt<std::string> gRules(
    "rules",
    llvm::cl::desc("Comma-separated rule names to run (default: all)"),
    llvm::cl::init("all"), llvm::cl::cat(gCategory));
llvm::cl::opt<bool> gListRules("list-rules",
                               llvm::cl::desc("List rules and exit"),
                               llvm::cl::init(false), llvm::cl::cat(gCategory));
llvm::cl::opt<bool> gNoUnused(
    "no-unused-suppression-check",
    llvm::cl::desc("Do not fail on unused suppressions (for non-default "
                   "build configurations that compile out annotated code)"),
    llvm::cl::init(false), llvm::cl::cat(gCategory));

}  // namespace

int main(int argc, const char** argv) {
  auto expected_parser = tooling::CommonOptionsParser::create(
      argc, argv, gCategory, llvm::cl::ZeroOrMore);
  if (!expected_parser) {
    llvm::errs() << "mv3c_analyze: " << llvm::toString(expected_parser.takeError())
                 << "\n";
    return 2;
  }
  tooling::CommonOptionsParser& options = *expected_parser;

  if (gListRules) {
    for (const RuleInfo& r : kRules)
      llvm::outs() << r.name << "\t" << r.summary << "\n";
    return 0;
  }

  // Resolve the rule mask.
  unsigned rule_mask = 0;
  if (gRules == "all" || gRules.empty()) {
    rule_mask = (1u << kNumRules) - 1;
  } else {
    llvm::SmallVector<llvm::StringRef, 16> parts;
    llvm::StringRef(gRules).split(parts, ',', -1, false);
    for (llvm::StringRef p : parts) {
      const int idx = RuleIndex(p.trim());
      if (idx < 0) {
        llvm::errs() << "mv3c_analyze: unknown rule '" << p << "'\n";
        return 2;
      }
      rule_mask |= 1u << idx;
    }
  }

  // Resolve the root: explicit flag or cwd, canonicalized.
  llvm::SmallString<256> root;
  if (gRoot.empty()) {
    llvm::sys::fs::current_path(root);
  } else {
    root = gRoot;
    llvm::sys::fs::make_absolute(root);
  }
  llvm::SmallString<256> real_root;
  if (!llvm::sys::fs::real_path(root, real_root)) root = real_root;
  while (!root.empty() && root.back() == '/') root.pop_back();

  const tooling::CompilationDatabase& db = options.getCompilations();
  std::vector<std::string> files = options.getSourcePathList();
  if (files.empty()) files = db.getAllFiles();

  // Keep first-party TUs only; external sources (gtest, benchmark) that a
  // compile database may carry are out of every rule's scope anyway.
  llvm::Regex first_party("^(src|bench|examples|tools|tests)/");
  std::vector<std::string> selected;
  for (const std::string& f : files) {
    llvm::SmallString<256> abs(f);
    llvm::sys::fs::make_absolute(abs);
    llvm::SmallString<256> real;
    if (!llvm::sys::fs::real_path(abs, real)) abs = real;
    llvm::StringRef ar(abs);
    if (!HasPrefix(ar, root) || ar.size() <= root.size() ||
        ar[root.size()] != '/')
      continue;
    if (first_party.match(ar.drop_front(root.size() + 1)))
      selected.push_back(abs.str().str());
  }
  std::sort(selected.begin(), selected.end());
  selected.erase(std::unique(selected.begin(), selected.end()),
                 selected.end());
  if (selected.empty()) {
    llvm::errs() << "mv3c_analyze: no first-party TUs found under " << root
                 << " in the compilation database\n";
    return 2;
  }

  const std::string resource_dir = FindResourceDir();
  const bool use_cache = !gNoCache && !gCacheDir.empty();

  // Global merge state.
  std::map<std::string, Finding> findings;         // key -> finding
  std::map<std::string, Suppression> suppressions; // file:line -> supp
  unsigned cached_tus = 0, analyzed_tus = 0, failed_tus = 0;

  for (const std::string& file : selected) {
    std::vector<tooling::CompileCommand> cmds = db.getCompileCommands(file);
    if (cmds.empty()) continue;
    const std::string key = CacheKey(cmds[0], rule_mask);

    TUResult result;
    bool from_cache = false;
    if (use_cache && LoadCache(gCacheDir, key, &result)) {
      from_cache = true;
      ++cached_tus;
    }
    if (!from_cache) {
      tooling::ClangTool tool(db, {file});
      tool.appendArgumentsAdjuster(tooling::getInsertArgumentAdjuster(
          "-w", tooling::ArgumentInsertPosition::END));
      if (!resource_dir.empty()) {
        tool.appendArgumentsAdjuster(tooling::getInsertArgumentAdjuster(
            {"-resource-dir", resource_dir},
            tooling::ArgumentInsertPosition::END));
      }
      ProtocolActionFactory factory(root, rule_mask, result);
      if (tool.run(&factory) != 0) {
        result.parse_error = true;
        ++failed_tus;
        llvm::errs() << "mv3c_analyze: error while processing " << file
                     << "\n";
      } else {
        ++analyzed_tus;
        if (use_cache) StoreCache(gCacheDir, key, result);
      }
    }

    for (Finding& f : result.findings)
      findings.emplace(f.Key(), std::move(f));
    for (Suppression& s : result.suppressions) {
      const std::string skey =
          s.file + ":" + std::to_string(s.comment_line);
      suppressions.emplace(skey, std::move(s));
    }
  }

  // Match findings against suppressions.
  // target index: file:line -> [suppression keys]
  std::map<std::string, std::vector<const Suppression*>> by_target;
  for (const auto& [skey, s] : suppressions)
    by_target[s.file + ":" + std::to_string(s.target_line)].push_back(&s);

  std::set<const Suppression*> used;
  std::vector<const Finding*> active;    // unsuppressed findings
  std::vector<const Finding*> squelched; // suppressed (JSON visibility)
  for (const auto& [fkey, f] : findings) {
    bool suppressed = false;
    const auto it = by_target.find(f.file + ":" + std::to_string(f.line));
    if (it != by_target.end()) {
      for (const Suppression* s : it->second) {
        if (std::find(s->rules.begin(), s->rules.end(), f.rule) !=
            s->rules.end()) {
          used.insert(s);
          suppressed = true;
        }
      }
    }
    (suppressed ? squelched : active).push_back(&f);
  }

  // Unused suppressions (skipped for rules not enabled this run).
  std::vector<const Suppression*> unused;
  if (!gNoUnused) {
    for (const auto& [skey, s] : suppressions) {
      if (used.count(&s)) continue;
      bool any_enabled = false;
      for (const std::string& r : s.rules) {
        const int idx = RuleIndex(r);
        if (idx >= 0 && (rule_mask & (1u << idx))) any_enabled = true;
      }
      if (any_enabled) unused.push_back(&s);
    }
  }

  const bool failed = !active.empty() || !unused.empty() || failed_tus > 0;

  if (gJson) {
    llvm::json::Array jf;
    for (const Finding* f : active)
      jf.push_back(llvm::json::Object{{"file", f->file},
                                      {"line", static_cast<int64_t>(f->line)},
                                      {"col", static_cast<int64_t>(f->col)},
                                      {"rule", f->rule},
                                      {"message", f->message},
                                      {"suppressed", false}});
    for (const Finding* f : squelched)
      jf.push_back(llvm::json::Object{{"file", f->file},
                                      {"line", static_cast<int64_t>(f->line)},
                                      {"col", static_cast<int64_t>(f->col)},
                                      {"rule", f->rule},
                                      {"message", f->message},
                                      {"suppressed", true}});
    llvm::json::Array ju;
    for (const Suppression* s : unused) {
      llvm::json::Array rules;
      for (const std::string& r : s->rules) rules.push_back(r);
      ju.push_back(llvm::json::Object{
          {"file", s->file},
          {"line", static_cast<int64_t>(s->comment_line)},
          {"rules", std::move(rules)}});
    }
    llvm::json::Object out{{"tool", kToolVersion},
                           {"tus_analyzed", static_cast<int64_t>(analyzed_tus)},
                           {"tus_cached", static_cast<int64_t>(cached_tus)},
                           {"tus_failed", static_cast<int64_t>(failed_tus)},
                           {"findings", std::move(jf)},
                           {"unused_suppressions", std::move(ju)},
                           {"ok", !failed}};
    llvm::outs() << llvm::json::Value(std::move(out)) << "\n";
  } else {
    for (const Finding* f : active)
      llvm::errs() << f->file << ":" << f->line << ":" << f->col
                   << ": error: [" << f->rule << "] " << f->message << "\n";
    for (const Suppression* s : unused)
      llvm::errs() << s->file << ":" << s->comment_line
                   << ": error: [suppression] unused suppression — the "
                      "violation it excused is gone; delete the comment\n";
    llvm::errs() << "mv3c_analyze: " << analyzed_tus << " TU(s) analyzed, "
                 << cached_tus << " from cache, " << failed_tus
                 << " failed; " << active.size() << " finding(s), "
                 << squelched.size() << " suppressed, " << unused.size()
                 << " unused suppression(s)\n";
  }

  if (failed_tus > 0) return 2;
  return failed ? 1 : 0;
}
