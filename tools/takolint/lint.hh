/**
 * @file
 * takolint: a determinism & lifetime static-analysis pass for tako-sim.
 *
 * A compiled C++20 linter with its own lexer and lightweight parser (no
 * libclang, no external deps) that enforces the project invariants the
 * quick suite's bit-identity gate depends on:
 *
 *   D1  no unordered-container state or iteration in model code
 *       (src/mem, src/tako, src/noc, src/sim, src/morphs, src/prof):
 *       hash order leaks into simulated behavior the moment anyone
 *       iterates, so model-side tables must be ordered containers or
 *       sorted drains.
 *   D2  no wall-clock, rand(), or getenv() reads on the simulated path:
 *       host state must never influence simulated time.
 *   L1  no by-reference lambda captures in callables passed to
 *       EventQueue::schedule/scheduleAbs or spawn(): the callable runs
 *       at a later tick, after the capturing frame is gone (PR 4's
 *       inline-storage EventQueue made this a silent use-after-scope).
 *   L2  no raw new/delete (or make_unique) of pooled types (EventNode):
 *       nodes must cycle through EventPool's free list.
 *   S1  stats resolved via cached handle() pointers at construction,
 *       not string lookups inside per-access code: registry calls are
 *       only allowed in constructors/destructors and finalize().
 *   X1  no static-duration mutable state in model code: sharded runs
 *       (SystemConfig::shards > 1) execute shards on concurrent host
 *       threads, so anything shared must either be immutable
 *       (const/constexpr/constinit), per-thread (thread_local), or go
 *       through the ShardedExecutor::sendKeyed() mailbox API. Heuristic on
 *       the `static` keyword; unmarked namespace-scope globals are a
 *       known blind spot.
 *
 * Flow-sensitive partition-safety rules (v2) run over partition code
 * (the model directories plus src/workloads and src/system) on a
 * per-function CFG recovered by the lightweight parser (flow.hh):
 *
 *   X2  no direct EventQueue::schedule* on a foreign domain's queue
 *       (obtained via Domains::queues() or the queues_/tileQueues_
 *       tables): cross-domain work must go through
 *       Domains::post/postAbs or ShardedExecutor::sendKeyed so it
 *       lands in the partition-invariant (tick, key) order.
 *   H1  no use of a pre-hop reference (or, in a lambda, a by-ref
 *       capture or explicit `this`) after a migrating suspension point
 *       (`co_await hopTo/hopToAbs/hop`): the coroutine resumes in
 *       another domain, so references bound before the hop are stale;
 *       re-bind after each hop. Findings carry a flow trace naming the
 *       binding, the suspension point, and the stale use.
 *   C1  no `// takolint: domain-local` annotated object (Semaphore,
 *       Join, per-tile state) captured into a cross-domain callable
 *       (post/postAbs/sendKeyed) or used after a migrating hop: such
 *       objects must only ever be touched from the domain that owns
 *       them (funnel through an anchor tile, like SimBarrier).
 *   L3  no address of a stack local escaping into a deferred callable
 *       (schedule*, spawn, post, postAbs, sendKeyed) via `p = &local`
 *       init-captures or `&local` in the body: the callable outlives
 *       the frame.
 *
 * Any site can opt out with an explicit, reasoned suppression on the
 * same line or the line above:
 *
 *     // takolint: ok(D1, drained into a sorted vector below)
 *
 * Diagnostics are GCC-style `file:line: rule: message`; the driver also
 * emits a `takolint-v2` JSON report (see tools/validate_takolint.py)
 * whose flow-rule findings carry the witness path as a `trace` array.
 */

#ifndef TAKO_TOOLS_TAKOLINT_LINT_HH
#define TAKO_TOOLS_TAKOLINT_LINT_HH

#include <map>
#include <set>
#include <string>
#include <vector>

namespace takolint
{

/** Token kinds; Comment/Preproc are off the significant stream. */
enum class Tok
{
    Ident,
    Number,
    String,
    CharLit,
    Punct,
    Comment,
    Preproc,
};

struct Token
{
    Tok kind;
    std::string text;
    int line = 0;
};

/** One `takolint: ok(RULE, reason)` comment. */
struct Suppression
{
    std::string rule;
    std::string reason;
    int line = 0;   ///< line of the comment itself
    bool used = false;
};

/** A lexed source file plus its suppression comments. */
struct SourceFile
{
    std::string path;            ///< as passed (used in diagnostics)
    std::vector<Token> tokens;   ///< full stream, comments included
    std::vector<int> sig;        ///< indices of significant tokens
    std::vector<Suppression> suppressions;
    /** Lines carrying a `// takolint: domain-local` annotation; the
     *  class definition on the same or the next line is domain-local
     *  by contract (rule C1). */
    std::vector<int> domainLocalMarks;
};

/** Lex @p source (contents of @p path) into tokens + suppressions. */
SourceFile lex(const std::string &path, const std::string &source);

/** Read and lex a file; throws std::runtime_error on I/O failure. */
SourceFile lexFile(const std::string &path);

/** One hop of a flow-rule witness path (takolint-v2 `trace`). */
struct TraceStep
{
    int line = 0;
    std::string note;
};

struct Finding
{
    std::string rule;
    std::string file;
    int line = 0;
    std::string message;
    bool suppressed = false;
    std::string suppressReason; ///< set when suppressed
    /** Witness path for flow rules (X2/H1/C1/L3): binding site,
     *  suspension point, stale use — empty for token-level rules. */
    std::vector<TraceStep> trace;
};

struct UnusedSuppression
{
    std::string file;
    int line = 0;
    std::string rule;
};

struct Config
{
    /** Treat every scanned file as model code (fixture runs). */
    bool assumeModelCode = false;
    /** Honor `takolint: ok(...)` comments (off to audit them). */
    bool honorSuppressions = true;
    /** Restrict to these rule ids; empty = all rules. */
    std::set<std::string> rules;
};

struct Report
{
    std::vector<Finding> findings; ///< active + suppressed, file order
    std::vector<UnusedSuppression> unusedSuppressions;
    int filesScanned = 0;

    /** Findings that are not suppressed (what gates the exit code). */
    int
    activeCount() const
    {
        int n = 0;
        for (const auto &f : findings)
            n += f.suppressed ? 0 : 1;
        return n;
    }
};

/** Rule id -> one-line description, for --list-rules and the report. */
const std::map<std::string, std::string> &ruleDescriptions();

/** True when @p path lies in a model-code directory (see D1 above). */
bool isModelPath(const std::string &path);

/**
 * True when @p path participates in the domain decomposition: the model
 * directories plus src/workloads (SimBarrier, guest threads) and
 * src/system (the shard planner). The flow rules (X2/H1/C1/L3) run
 * here; the token rules keep their original model scope.
 */
bool isPartitionPath(const std::string &path);

/**
 * Expand files/directories into a sorted list of .hh/.cc sources.
 * Directories are walked recursively; build/ trees are skipped.
 */
std::vector<std::string> collectSources(const std::vector<std::string> &paths);

/** Run every enabled rule over @p files (two passes: index, check). */
Report lint(const std::vector<SourceFile> &files, const Config &cfg);

/** Convenience: lexFile() each path, then lint(). */
Report lintPaths(const std::vector<std::string> &paths, const Config &cfg);

/** GCC-style one-line rendering of @p f (no trailing newline). */
std::string format(const Finding &f);

} // namespace takolint

#endif // TAKO_TOOLS_TAKOLINT_LINT_HH
