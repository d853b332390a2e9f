/**
 * @file
 * takolint's rule engine: a lightweight parser over the lexer's token
 * stream. Two passes over the file set:
 *
 *  1. index — collect identifiers declared with unordered-container
 *     types anywhere in the scanned set (members declared in a .hh are
 *     iterated from the .cc, so this index is global), and per-file
 *     EventNode* variables (delete sites are local to their file).
 *  2. check — walk each file's significant tokens once, running D1,
 *     D2, L1, L2 and S1. S1 tracks enclosing class/function scopes with
 *     a small brace/paren machine so registry lookups in constructor
 *     init-lists and finalize() stay legal.
 *
 * This is intentionally not a compiler: it over-approximates (every
 * identifier that was *ever* declared unordered is treated as unordered
 * everywhere), and the release valve for a deliberate, reviewed site is
 * a reasoned `// takolint: ok(RULE, why)` suppression.
 */

#include <algorithm>
#include <array>
#include <filesystem>

#include "flow.hh"

namespace takolint
{

namespace
{

const std::set<std::string> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset",
};

/** Host-state reads that must never steer the simulated path (D2). */
const std::set<std::string> kHostCalls = {
    "rand",        "srand",     "random",        "drand48",
    "lrand48",     "rand_r",    "getenv",        "gettimeofday",
    "clock_gettime", "time",    "clock",         "localtime",
    "gmtime",      "mktime",
};

/** Chrono clocks whose ::now() is a wall-clock read (D2). */
const std::set<std::string> kHostClocks = {
    "system_clock", "steady_clock", "high_resolution_clock",
};

/** Entry points whose callables outlive the caller's frame (L1). */
const std::set<std::string> kDeferredCalls = {
    "schedule", "scheduleAbs", "spawn",
};

/** Types that must only be allocated through their pool (L2). */
const std::set<std::string> kPooledTypes = {"EventNode"};

/** StatsRegistry string-lookup members (S1). */
const std::set<std::string> kStatsLookups = {
    "counter", "histogram", "handle", "histogramHandle",
};

/** Setup/teardown functions where string-lookup stats are fine (S1). */
const std::set<std::string> kStatsOkFunctions = {"finalize"};

const std::set<std::string> kKeywordsNotFunctions = {
    "if",     "for",    "while",   "switch", "catch", "return",
    "sizeof", "static_assert", "alignof", "decltype", "co_await",
    "co_return", "co_yield", "new", "delete", "throw", "assert",
    "noexcept", "operator", "alignas", "panic", "panic_if",
};

struct Index
{
    /** Identifiers declared with an unordered container type. */
    std::set<std::string> unorderedVars;
    /** Per file: identifiers declared as EventNode*. */
    std::map<std::string, std::set<std::string>> nodePtrVars;
};

/** The per-file checker (pass 2). The token-stream Cursor lives in
 *  flow.hh, shared with the flow layer. */
class Checker
{
  public:
    Checker(const SourceFile &f, const Index &idx, const Config &cfg,
            bool model, Report &report)
        : f_(f), c_(f), idx_(idx), cfg_(cfg), model_(model),
          report_(report)
    {
        auto it = idx.nodePtrVars.find(f.path);
        if (it != idx.nodePtrVars.end())
            nodePtrs_ = &it->second;
    }

    void
    run()
    {
        for (int i = 0; i < c_.size(); ++i) {
            trackScopes(i);
            if (model_) {
                checkD1(i);
                checkD2(i);
                checkS1(i);
                checkX1(i);
            }
            checkL1(i);
            checkL2(i);
        }
    }

  private:
    // ---- scope tracking (for S1 contexts) --------------------------
    struct Scope
    {
        enum Kind { Namespace, Class, Function, Block } kind;
        std::string name;
        bool statsOk = false; ///< ctor/dtor/finalize body
    };

    bool
    ruleEnabled(const std::string &rule) const
    {
        return cfg_.rules.empty() || cfg_.rules.count(rule);
    }

    void
    emit(const std::string &rule, int line, std::string msg,
         std::vector<TraceStep> trace = {})
    {
        if (!ruleEnabled(rule))
            return;
        // One finding per (rule, line): min_element(x.begin(), x.end())
        // is one defect, not two.
        for (const auto &prev : report_.findings)
            if (prev.rule == rule && prev.file == f_.path &&
                prev.line == line)
                return;
        Finding f;
        f.rule = rule;
        f.file = f_.path;
        f.line = line;
        f.message = std::move(msg);
        f.trace = std::move(trace);
        if (cfg_.honorSuppressions) {
            for (auto &s : suppressions_) {
                if (s->rule == rule &&
                    (s->line == line || s->line == line - 1)) {
                    f.suppressed = true;
                    f.suppressReason = s->reason;
                    s->used = true;
                    break;
                }
            }
        }
        report_.findings.push_back(std::move(f));
    }

    std::string
    currentClass() const
    {
        for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it)
            if (it->kind == Scope::Class)
                return it->name;
        return "";
    }

    bool
    inStatsOkContext() const
    {
        if (pendingInitList_)
            return pendingStatsOk_;
        for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it)
            if (it->kind == Scope::Function)
                return it->statsOk;
        // Namespace-scope initializers run once at startup: fine.
        return true;
    }

    bool
    inFunction() const
    {
        if (pendingInitList_ || bodyAt_ >= 0)
            return true;
        for (const auto &s : scopes_)
            if (s.kind == Scope::Function)
                return true;
        return false;
    }

    /**
     * Is the function whose qualified name components are @p parts a
     * context where S1 string lookups are legal (ctor/dtor/finalize)?
     */
    bool
    statsOkFunction(const std::vector<std::string> &parts) const
    {
        if (parts.empty())
            return false;
        const std::string &last = parts.back();
        if (kStatsOkFunctions.count(last))
            return true;
        if (last.size() > 1 && last[0] == '~')
            return true;
        if (parts.size() >= 2 && parts[parts.size() - 2] == last)
            return true; // A::A — out-of-line constructor
        const std::string cls = currentClass();
        return !cls.empty() && last == cls; // inline constructor
    }

    void
    trackScopes(int i)
    {
        const std::string &t = c_.text(i);

        if (t == "{") {
            if (i == bodyAt_) {
                // The `{` detectFunction already resolved as this
                // function's body.
                bodyAt_ = -1;
                scopes_.push_back(
                    {Scope::Function, pendingName_, pendingStatsOk_});
                return;
            }
            if (pendingInitList_) {
                // Member brace-init (`x_{0}`) follows an identifier or
                // a template close; the ctor body follows `)` or `}`.
                const std::string &prev = c_.text(i - 1);
                if (initBraceDepth_ > 0 || c_.isIdent(i - 1) ||
                    prev == ">" || prev == ">>") {
                    ++initBraceDepth_;
                    return;
                }
                pendingInitList_ = false;
                scopes_.push_back(
                    {Scope::Function, pendingName_, pendingStatsOk_});
                return;
            }
            if (pendingKind_ != Scope::Block) {
                scopes_.push_back({pendingKind_, pendingName_, false});
                pendingKind_ = Scope::Block;
                pendingName_.clear();
            } else {
                scopes_.push_back({Scope::Block, "", false});
            }
            return;
        }
        if (t == "}") {
            if (pendingInitList_ && initBraceDepth_ > 0) {
                --initBraceDepth_;
                return;
            }
            if (!scopes_.empty())
                scopes_.pop_back();
            return;
        }
        if (t == ";") {
            // `class X;` / `struct X x;` — elaborated use, no scope.
            pendingKind_ = Scope::Block;
            pendingName_.clear();
            return;
        }

        if (t == "namespace" && !inFunction()) {
            int j = i + 1;
            std::string name;
            while (c_.isIdent(j) || c_.is(j, "::")) {
                name += c_.text(j);
                ++j;
            }
            if (!c_.is(j, "="))  { // not a namespace alias
                pendingKind_ = Scope::Namespace;
                pendingName_ = name.empty() ? "<anon>" : name;
            }
            return;
        }
        if ((t == "class" || t == "struct" || t == "union") &&
            !inFunction() && !c_.is(i - 1, "enum")) {
            int j = i + 1;
            while (c_.is(j, "[") || c_.is(j, "alignas")) // attributes
                j = c_.match(j, "[", "]") + 1;
            if (c_.isIdent(j)) {
                pendingKind_ = Scope::Class;
                pendingName_ = c_.text(j);
            }
            return;
        }
        if (t == "enum" && !inFunction()) {
            pendingKind_ = Scope::Class; // close enough: a named scope
            pendingName_ = "<enum>";
            return;
        }

        // Function definition detection, only outside any function.
        if (!inFunction() && c_.isIdent(i) && c_.is(i + 1, "(") &&
            !kKeywordsNotFunctions.count(t)) {
            detectFunction(i);
        }
        if (!inFunction() && t == "~" && c_.isIdent(i + 1) &&
            c_.is(i + 2, "(")) {
            detectFunction(i + 1, /*dtor=*/true);
        }
    }

    void
    detectFunction(int i, bool dtor = false)
    {
        // Qualified name: walk back over `A ::` pairs.
        std::vector<std::string> parts;
        int b = i;
        parts.insert(parts.begin(), (dtor ? "~" : "") + c_.text(b));
        while (c_.is(b - 1, "::") && c_.isIdent(b - 2)) {
            b -= 2;
            parts.insert(parts.begin(), c_.text(b));
        }
        const int close = c_.match(i + 1, "(", ")");
        if (close >= c_.size())
            return;
        // Skip trailing specifiers up to the body/init-list/terminator.
        int j = close + 1;
        static const std::set<std::string> kSpecifiers = {
            "const", "noexcept", "override", "final", "mutable",
            "volatile", "&", "&&", "try",
        };
        while (j < c_.size()) {
            const std::string &s = c_.text(j);
            if (kSpecifiers.count(s)) {
                ++j;
                if (s == "noexcept" && c_.is(j, "("))
                    j = c_.match(j, "(", ")") + 1;
                continue;
            }
            if (s == "->") { // trailing return type
                ++j;
                while (j < c_.size() && !c_.is(j, "{") && !c_.is(j, ";") &&
                       !c_.is(j, "="))
                    ++j;
                continue;
            }
            break;
        }
        const bool ok = statsOkFunction(parts);
        std::string name;
        for (const auto &p : parts)
            name += (name.empty() ? "" : "::") + p;
        if (c_.is(j, "{")) {
            bodyAt_ = j; // the exact `{` that opens this body
            pendingName_ = name;
            pendingStatsOk_ = ok;
        } else if (c_.is(j, ":")) {
            pendingInitList_ = true; // ctor init-list region
            initBraceDepth_ = 0;
            pendingName_ = name;
            pendingStatsOk_ = ok;
        }
        // `;` / `=` (declaration, deleted, pure) — nothing to do.
    }

    // ---- D1: unordered containers in model code --------------------
    void
    checkD1(int i)
    {
        const std::string &t = c_.text(i);
        if (kUnorderedTypes.count(t) && c_.isIdent(i)) {
            emit("D1", c_.line(i),
                 "std::" + t + " in model code: hash order becomes "
                 "simulated behavior the moment anyone iterates; use an "
                 "ordered container or a sorted drain");
            return;
        }
        // Range-for over a known-unordered identifier, including
        // member chains (`for (auto &kv : t.streams)`).
        if (t == ":" && c_.isIdent(i + 1)) {
            int j = i + 1;
            while ((c_.is(j + 1, ".") || c_.is(j + 1, "->")) &&
                   c_.isIdent(j + 2))
                j += 2;
            if (c_.is(j + 1, ")") &&
                idx_.unorderedVars.count(c_.text(j)) &&
                looksLikeRangeFor(i)) {
                emit("D1", c_.line(j),
                     "range-for over unordered container '" +
                         c_.text(j) + "': iteration order is hash order");
                return;
            }
        }
        // Iterator walk over a known-unordered identifier.
        if ((t == "begin" || t == "cbegin" || t == "end" ||
             t == "cend") &&
            c_.is(i + 1, "(") && (c_.is(i - 1, ".") || c_.is(i - 1, "->")) &&
            c_.isIdent(i - 2) &&
            idx_.unorderedVars.count(c_.text(i - 2)) &&
            !erasePattern(i)) {
            emit("D1", c_.line(i),
                 "iterator walk over unordered container '" +
                 c_.text(i - 2) + "': visit order is hash order");
        }
    }

    /** `it == X.end()` / `X.find(k) != X.end()` are lookups, not
     *  walks: an `end()` compared against or assigned from find() is
     *  fine. We flag begin()/end() only when both appear as a pair in
     *  the same expression (e.g. std::min_element(X.begin(), X.end())),
     *  or a bare begin() dereference. */
    bool
    erasePattern(int i) const
    {
        const std::string &t = c_.text(i);
        if (t != "end" && t != "cend")
            return false;
        // end() used in a comparison or initializer -> lookup idiom.
        const int after = c_.match(i + 1, "(", ")") + 1;
        static const std::set<std::string> cmp = {"==", "!=", ";", ")",
                                                  "?", ":"};
        const std::string &prevExpr = prevSignificantBefore(i);
        return cmp.count(c_.text(after)) ||
               prevExpr == "==" || prevExpr == "!=" || prevExpr == "=";
    }

    /** Significant token just before the `X.end(` chain at @p i. */
    const std::string &
    prevSignificantBefore(int i) const
    {
        // i is `end`; i-1 is `.`; i-2 is the identifier.
        return c_.text(i - 3);
    }

    bool
    looksLikeRangeFor(int colon) const
    {
        // Walk back to the enclosing `(`; its predecessor must be `for`.
        int depth = 0;
        for (int j = colon - 1; j >= 0 && colon - j < 64; --j) {
            const std::string &t = c_.text(j);
            if (t == ")")
                ++depth;
            else if (t == "(") {
                if (depth == 0)
                    return c_.is(j - 1, "for");
                --depth;
            }
        }
        return false;
    }

    // ---- D2: host state on the simulated path ----------------------
    void
    checkD2(int i)
    {
        const std::string &t = c_.text(i);
        if (!c_.isIdent(i))
            return;
        if (kHostCalls.count(t) && c_.is(i + 1, "(")) {
            // Member calls (`x.time(...)`) are not the libc function;
            // `std::time(...)` and bare calls are.
            const std::string &prev = c_.text(i - 1);
            if (prev == "." || prev == "->")
                return;
            if (prev == "::" && !c_.is(i - 2, "std"))
                return;
            emit("D2", c_.line(i),
                 "host call '" + t + "()' on the simulated path: "
                 "wall-clock/rng/env reads break replay determinism "
                 "(use sim/random.hh or pass config in)");
            return;
        }
        if (kHostClocks.count(t) && c_.is(i + 1, "::") &&
            c_.is(i + 2, "now")) {
            emit("D2", c_.line(i),
                 "std::chrono::" + t + "::now() in model code: host "
                 "time must never steer simulated time");
        }
    }

    // ---- L1: by-ref captures in deferred callables -----------------
    void
    checkL1(int i)
    {
        if (!c_.isIdent(i) || !kDeferredCalls.count(c_.text(i)) ||
            !c_.is(i + 1, "("))
            return;
        // Skip definitions/declarations of the entry points themselves:
        // a call site is preceded by `.`, `->`, `(`, `,`, `;`, `{`, `=`
        // or similar — not by a type name.
        const int close = c_.match(i + 1, "(", ")");
        for (int j = i + 2; j < close; ++j) {
            if (!c_.is(j, "["))
                continue;
            // Lambda introducer vs. subscript: a lambda's `[` cannot
            // follow an identifier / `)` / `]` (those are subscripts).
            const std::string &prev = c_.text(j - 1);
            if (c_.isIdent(j - 1) || prev == ")" || prev == "]")
                continue;
            const int cap = c_.match(j, "[", "]");
            for (int k = j + 1; k < cap; ++k) {
                if (c_.is(k, "&") || c_.is(k, "&&")) {
                    emit("L1", c_.line(k),
                         "by-reference lambda capture passed to '" +
                             c_.text(i) + "': the callable runs at a "
                             "later tick, after the capturing frame is "
                             "gone — capture by value");
                    break;
                }
            }
            j = cap;
        }
    }

    // ---- L2: raw allocation of pooled types ------------------------
    void
    checkL2(int i)
    {
        const std::string &t = c_.text(i);
        if (t == "new") {
            int j = i + 1;
            if (c_.is(j, "(")) // placement new: the pool's own business
                return;
            while (c_.isIdent(j) && c_.is(j + 1, "::"))
                j += 2;
            if (c_.isIdent(j) && kPooledTypes.count(c_.text(j))) {
                emit("L2", c_.line(i),
                     "raw new of pooled type " + c_.text(j) +
                         ": allocate through EventPool so nodes recycle "
                         "through the free list");
            }
            return;
        }
        if (t == "make_unique" || t == "make_shared") {
            if (!c_.is(i + 1, "<"))
                return;
            const int end = c_.skipTemplateArgs(i + 1);
            for (int j = i + 2; j < end; ++j) {
                if (c_.isIdent(j) && kPooledTypes.count(c_.text(j))) {
                    emit("L2", c_.line(i),
                         "std::" + t + " of pooled type " + c_.text(j) +
                             ": allocate through EventPool");
                    return;
                }
            }
            return;
        }
        if (t == "delete" && nodePtrs_) {
            int j = i + 1;
            if (c_.is(j, "[")) // delete[]
                j = c_.match(j, "[", "]") + 1;
            if (c_.isIdent(j) && nodePtrs_->count(c_.text(j))) {
                emit("L2", c_.line(i),
                     "raw delete of EventNode* '" + c_.text(j) +
                         "': return nodes with EventPool::release()");
            }
        }
    }

    // ---- S1: string-lookup stats in per-access code ----------------
    void
    checkS1(int i)
    {
        if (!c_.isIdent(i) || !kStatsLookups.count(c_.text(i)) ||
            !c_.is(i + 1, "("))
            return;
        const std::string &prev = c_.text(i - 1);
        if (prev != "." && prev != "->")
            return; // our own definitions / unrelated free functions
        if (inStatsOkContext())
            return;
        emit("S1", c_.line(i),
             "stats string lookup '" + c_.text(i) + "()' outside a "
             "constructor/finalize: resolve a Counter*/Histogram* "
             "handle at construction and increment through it");
    }

    // ---- X1: static-duration mutable state in model code -----------
    /**
     * Sharded runs execute model code on several host threads at once:
     * any `static` (function-local or namespace/class scope) that is
     * neither immutable (`const`/`constexpr`/`constinit`) nor
     * per-thread (`thread_local`) is shared mutable state that bypasses
     * the mailbox API and breaks both thread-safety and determinism.
     *
     * Heuristic, as everywhere in this linter: a `(` before the
     * declarator ends means a function declaration (skipped), and
     * namespace-scope globals declared *without* the `static` keyword
     * are not seen at all — a known under-approximation.
     */
    void
    checkX1(int i)
    {
        if (!c_.is(i, "static"))
            return;
        for (int j = i + 1; j < c_.size() && j < i + 40;) {
            const std::string &t = c_.text(j);
            if (t == "const" || t == "constexpr" || t == "constinit" ||
                t == "thread_local")
                return; // immutable or shard-private: fine
            if (t == "<") {
                j = c_.skipTemplateArgs(j);
                continue;
            }
            if (t == "(")
                return; // function (or constructor-style init): skip
            if (t == ";" || t == "=" || t == "{") {
                emit("X1", c_.line(i),
                     "static-duration mutable state in model code: "
                     "shards run concurrently, so cross-shard "
                     "communication must go through "
                     "ShardedExecutor::sendKeyed() mailboxes; make this "
                     "const/constexpr, thread_local, or per-instance");
                return;
            }
            ++j;
        }
    }

    const SourceFile &f_;
    Cursor c_;
    const Index &idx_;
    const Config &cfg_;
    bool model_;
    Report &report_;
    const std::set<std::string> *nodePtrs_ = nullptr;
    std::vector<Suppression *> suppressions_;

    std::vector<Scope> scopes_;
    Scope::Kind pendingKind_ = Scope::Block;
    std::string pendingName_;
    bool pendingInitList_ = false;
    bool pendingStatsOk_ = false;
    int initBraceDepth_ = 0;
    int bodyAt_ = -1; ///< sig index of a detected function's body `{`

  public:
    void
    bindSuppressions(std::vector<Suppression> &supps)
    {
        for (auto &s : supps)
            suppressions_.push_back(&s);
    }

    /** Flow-rule adapter: routes X2/H1/C1/L3 findings through the same
     *  dedupe + suppression machinery as the token rules, so one
     *  suppression list covers the whole multi-rule pass. */
    void
    emitFlow(const std::string &rule, int line, std::string msg,
             std::vector<TraceStep> trace)
    {
        emit(rule, line, std::move(msg), std::move(trace));
    }
};

/** Pass 1: harvest declared-identifier facts from one file. */
void
indexFile(const SourceFile &f, Index &idx)
{
    Cursor c(f);
    for (int i = 0; i < c.size(); ++i) {
        if (c.isIdent(i) && kUnorderedTypes.count(c.text(i)) &&
            c.is(i + 1, "<")) {
            int j = c.skipTemplateArgs(i + 1);
            while (c.is(j, "*") || c.is(j, "&"))
                ++j;
            if (c.isIdent(j))
                idx.unorderedVars.insert(c.text(j));
            continue;
        }
        if (c.isIdent(i) && kPooledTypes.count(c.text(i)) &&
            c.is(i + 1, "*") && c.isIdent(i + 2)) {
            idx.nodePtrVars[f.path].insert(c.text(i + 2));
        }
    }
}

} // namespace

const std::map<std::string, std::string> &
ruleDescriptions()
{
    static const std::map<std::string, std::string> rules = {
        {"D1", "no unordered-container state/iteration in model code"},
        {"D2", "no wall-clock, rand() or getenv() on the simulated path"},
        {"L1", "no by-reference lambda captures in deferred callables"},
        {"L2", "no raw new/delete of pooled types (EventNode)"},
        {"S1", "stats via cached handles, not string lookups, in "
               "per-access code"},
        {"X1", "no static-duration mutable state in model code "
               "(cross-shard state outside the mailbox API)"},
        {"X2", "no direct EventQueue::schedule* on a foreign domain's "
               "queue (use Domains::post/postAbs or sendKeyed)"},
        {"H1", "no use of a pre-hop reference, `this`, or by-ref "
               "capture after a migrating co_await hopTo/hop"},
        {"C1", "no domain-local annotated object (Semaphore, Join, "
               "per-tile state) crossing a domain boundary"},
        {"L3", "no stack-local address escaping into a deferred "
               "callable (schedule*/spawn/post/sendKeyed)"},
    };
    return rules;
}

bool
isModelPath(const std::string &path)
{
    static const std::array<const char *, 8> dirs = {
        "src/mem/", "src/tako/", "src/noc/",
        "src/sim/", "src/morphs/", "src/prof/",
        "src/trace/", "src/mon/",
    };
    std::string p = path;
    std::replace(p.begin(), p.end(), '\\', '/');
    for (const char *d : dirs)
        if (p.find(d) != std::string::npos)
            return true;
    return false;
}

bool
isPartitionPath(const std::string &path)
{
    if (isModelPath(path))
        return true;
    std::string p = path;
    std::replace(p.begin(), p.end(), '\\', '/');
    return p.find("src/workloads/") != std::string::npos ||
           p.find("src/system/") != std::string::npos;
}

std::vector<std::string>
collectSources(const std::vector<std::string> &paths)
{
    namespace fs = std::filesystem;
    std::vector<std::string> out;
    for (const auto &p : paths) {
        if (fs::is_directory(p)) {
            for (auto it = fs::recursive_directory_iterator(p);
                 it != fs::recursive_directory_iterator(); ++it) {
                if (it->is_directory() &&
                    it->path().filename() == "build") {
                    it.disable_recursion_pending();
                    continue;
                }
                if (!it->is_regular_file())
                    continue;
                const std::string ext = it->path().extension().string();
                if (ext == ".hh" || ext == ".cc" || ext == ".hpp" ||
                    ext == ".cpp" || ext == ".h")
                    out.push_back(it->path().string());
            }
        } else {
            out.push_back(p);
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

Report
lint(const std::vector<SourceFile> &files, const Config &cfg)
{
    Index idx;
    for (const auto &f : files)
        indexFile(f, idx);

    // Flow symbol index (cross-file, two passes: pass B needs every
    // file's annotated classes from pass A).
    SymbolIndex sym;
    for (const auto &f : files)
        indexClasses(f, sym);
    for (const auto &f : files)
        indexAnnotatedVars(f, sym);

    Report report;
    report.filesScanned = static_cast<int>(files.size());
    // `lint` takes files by const&, but suppressions carry a `used`
    // flag; track usage in a mutable copy per file. The copy is shared
    // by the token pass and the flow pass, so a suppression used by
    // either is not reported unused.
    for (const auto &f : files) {
        std::vector<Suppression> supps = f.suppressions;
        const bool model = cfg.assumeModelCode || isModelPath(f.path);
        Checker checker(f, idx, cfg, model, report);
        checker.bindSuppressions(supps);
        checker.run();
        if (cfg.assumeModelCode || isPartitionPath(f.path)) {
            checkFlowRules(f, sym, cfg,
                           [&](const std::string &rule, int line,
                               std::string msg,
                               std::vector<TraceStep> trace) {
                               checker.emitFlow(rule, line,
                                                std::move(msg),
                                                std::move(trace));
                           });
        }
        // Unused suppressions, deduplicated per (line, rule): a line
        // carrying the same ok(...) twice — or one seen by several
        // rule passes — is still one stale suppression.
        std::set<std::pair<int, std::string>> reported;
        for (const auto &s : supps) {
            if (s.used || !cfg.honorSuppressions)
                continue;
            if (!cfg.rules.empty() && !cfg.rules.count(s.rule))
                continue;
            if (!reported.insert({s.line, s.rule}).second)
                continue;
            report.unusedSuppressions.push_back({f.path, s.line, s.rule});
        }
    }
    std::stable_sort(report.findings.begin(), report.findings.end(),
                     [](const Finding &a, const Finding &b) {
                         if (a.file != b.file)
                             return a.file < b.file;
                         return a.line < b.line;
                     });
    return report;
}

Report
lintPaths(const std::vector<std::string> &paths, const Config &cfg)
{
    std::vector<SourceFile> files;
    for (const auto &p : collectSources(paths))
        files.push_back(lexFile(p));
    return lint(files, cfg);
}

std::string
format(const Finding &f)
{
    std::string out =
        f.file + ":" + std::to_string(f.line) + ": " + f.rule + ": " +
        f.message;
    if (f.suppressed)
        out += " [suppressed: " +
               (f.suppressReason.empty() ? "no reason" : f.suppressReason) +
               "]";
    // Flow findings append their witness path as GCC-style notes, one
    // line per step, so the bind -> suspension -> stale-use chain reads
    // straight off the terminal.
    for (const auto &step : f.trace)
        out += "\n" + f.file + ":" + std::to_string(step.line) +
               ": note: " + step.note;
    return out;
}

} // namespace takolint
