/**
 * @file
 * takolint's flow-sensitive partition-safety rules (X2/H1/C1/L3) over
 * the per-function CFGs recovered by parse.cc and the cross-file
 * symbol index from symbols.cc.
 *
 * H1 and C1's use-after-hop half run a forward may-dataflow with
 * bind-kill semantics: a tracked binding is UNBOUND until its
 * declaration, CLEAN from the declaration on, and TAINTED once any
 * path crosses a migrating suspension point — until a re-declaration
 * kills the taint. The kill matters: `Tick &free = linkFree_[li]`
 * re-bound at the top of each loop iteration is clean even though the
 * loop body ends in a hop, and only a CFG with real back-edges can see
 * that.
 *
 * Deliberate blind spots (documented, fixture-pinned): H1 tracks
 * reference-typed *locals* only — reference parameters follow the
 * awaiting caller's frame and are safe by contract (e.g. LatBreakdown
 * accumulators), and pointer locals are left to review; member access
 * through the implicit `this` is exempt (components span domains and
 * re-acquire context); C1 does not chase domain-local objects passed
 * as plain arguments into spawned coroutines (single-tile engine
 * plumbing does this legitimately — the rule keys on *capture into a
 * cross-domain callable* and *use after a hop*).
 */

#include <algorithm>

#include "flow.hh"

namespace takolint
{

namespace
{

/** Foreign-queue sources (X2): grabbing another domain's queue. */
const std::set<std::string> kForeignQueueSources = {
    "queues", "queues_", "tileQueues_",
};

/** EventQueue entry points that enqueue work (X2 receivers). */
const std::set<std::string> kScheduleFamily = {
    "schedule", "scheduleAbs", "scheduleKeyed", "spawn",
};

/** Deferred sinks whose callables outlive the calling frame (L3). */
const std::set<std::string> kDeferredSinks = {
    "schedule", "scheduleAbs", "scheduleKeyed", "spawn",
    "post",     "postAbs",     "sendKeyed",
};

/** Sinks whose callables run in another domain (C1). */
const std::set<std::string> kCrossDomainSinks = {
    "post", "postAbs", "sendKeyed",
};

const std::set<std::string> kDeclContextBreakers = {
    "return", "co_return", "co_await", "co_yield", "throw", "case",
    "new", "delete", "sizeof", "typedef", "using", "goto", "else",
};

/** What a tracked binding is, for rule routing and messages. */
enum class VarKind
{
    Ref,            ///< reference-typed local (H1)
    RefCapture,     ///< by-ref lambda capture (H1)
    ThisCapture,    ///< captured `this`, explicit uses only (H1)
    DomainLocal,    ///< annotated-type local/param, value or ref (C1)
};

struct TrackedVar
{
    std::string name;
    VarKind kind;
    std::string cls;  ///< annotated class, for C1 messages
    int declLine = 0; ///< binding site (capture line for captures)
};

enum class TaintState
{
    Unbound,
    Clean,
    Tainted,
};

struct VarState
{
    TaintState s = TaintState::Unbound;
    int declLine = 0;
    int hopLine = 0;
    std::string hopCallee;

    bool
    mergeFrom(const VarState &o)
    {
        if (static_cast<int>(o.s) <= static_cast<int>(s))
            return false;
        *this = o;
        return true;
    }
};

/** Per-function analysis driver for H1 + C1's use-after-hop half. */
class FuncFlow
{
  public:
    FuncFlow(const Cursor &c, const Func &fn, const SymbolIndex &sym,
             const FlowSink &sink)
        : c_(c), fn_(fn), sym_(sym), sink_(sink)
    {
        for (const Lambda &l : fn.lambdas)
            lambdaAt_[l.intro] = &l;
        for (const Suspension &s : fn.suspensions)
            suspAt_[s.at] = &s;
    }

    void
    run()
    {
        collectVars();
        if (vars_.empty() || fn_.suspensions.empty())
            return;
        solve();
        for (std::size_t b = 0; b < fn_.blocks.size(); ++b) {
            std::vector<VarState> st = in_[b];
            walkBlock(static_cast<int>(b), st, /*report=*/true);
        }
    }

    /** Tracked annotated locals/params, for C1's capture check. */
    const std::vector<TrackedVar> &
    trackedVars() const
    {
        return vars_;
    }

  private:
    int
    varIdOf(const std::string &name) const
    {
        for (std::size_t v = 0; v < vars_.size(); ++v)
            if (vars_[v].name == name)
                return static_cast<int>(v);
        return -1;
    }

    void
    track(TrackedVar v)
    {
        if (varIdOf(v.name) < 0)
            vars_.push_back(std::move(v));
    }

    /** Is the ident at @p i part of a member chain (`x.t`, `a::t`)? */
    bool
    memberContext(int i) const
    {
        const std::string &p = c_.text(i - 1);
        return p == "." || p == "->" || p == "::";
    }

    void
    collectVars()
    {
        // Reference-typed local declarations in the body (outside
        // nested lambdas): `Type &name =` / `auto &name :`.
        forEachBodyToken([&](int i) {
            if (!c_.is(i, "&") || !c_.isIdent(i + 1))
                return;
            const std::string &after = c_.text(i + 2);
            if (after != "=" && after != ":")
                return;
            // The token before `&` must look like the end of a type.
            int t = i - 1;
            if (c_.is(t, "const"))
                --t;
            const std::string &tt = c_.text(t);
            if (!c_.isIdent(t) && tt != ">" && tt != ">>")
                return;
            if (kDeclContextBreakers.count(tt))
                return;
            std::string typeName;
            if (c_.isIdent(t))
                typeName = tt;
            else if (int open = findTemplateOpen(t); open >= 0)
                typeName = c_.text(open - 1);
            TrackedVar v;
            v.name = c_.text(i + 1);
            v.declLine = c_.line(i + 1);
            if (sym_.domainLocalClasses.count(typeName)) {
                v.kind = VarKind::DomainLocal;
                v.cls = typeName;
            } else {
                v.kind = VarKind::Ref;
            }
            declAt_[i + 1] = -1; // resolved to an id below
            track(std::move(v));
            declAt_[i + 1] = varIdOf(c_.text(i + 1));
        });

        // Annotated-type *value* locals: `Semaphore s(...)` etc. (C1).
        forEachBodyToken([&](int i) {
            if (!c_.isIdent(i) ||
                !sym_.domainLocalClasses.count(c_.text(i)) ||
                memberContext(i))
                return;
            int j = i + 1;
            if (c_.is(j, "<"))
                j = c_.skipTemplateArgs(j);
            if (!c_.isIdent(j))
                return;
            const std::string &after = c_.text(j + 1);
            if (after != "(" && after != "{" && after != ";" &&
                after != "=")
                return;
            TrackedVar v;
            v.name = c_.text(j);
            v.declLine = c_.line(j);
            v.kind = VarKind::DomainLocal;
            v.cls = c_.text(i);
            track(std::move(v));
            declAt_[j] = varIdOf(c_.text(j));
        });

        // Annotated-type parameters (value or reference): they are
        // bound to the awaiting caller's objects, so using them after
        // a hop touches another domain's state (C1). Plain reference
        // params stay exempt from H1.
        if (fn_.paramBegin >= 0) {
            for (int i = fn_.paramBegin + 1; i < fn_.paramEnd; ++i) {
                if (!c_.isIdent(i) ||
                    !sym_.domainLocalClasses.count(c_.text(i)))
                    continue;
                int j = i + 1;
                while (c_.is(j, "&") || c_.is(j, "*") ||
                       c_.is(j, "const"))
                    ++j;
                if (!c_.isIdent(j))
                    continue;
                const std::string &after = c_.text(j + 1);
                if (after != "," && after != ")" && after != "=")
                    continue;
                TrackedVar v;
                v.name = c_.text(j);
                v.declLine = c_.line(j);
                v.kind = VarKind::DomainLocal;
                v.cls = c_.text(i);
                track(std::move(v));
                params_.push_back(varIdOf(c_.text(j)));
            }
        }

        // Lambda bodies: by-ref captures and captured `this` are
        // references into the enclosing frame/object; after the
        // *lambda's own* migrating hop they are stale (H1).
        if (fn_.isLambda) {
            for (const auto &[name, line] : fn_.lam.refCaptures) {
                TrackedVar v;
                v.name = name;
                v.declLine = line;
                v.kind = VarKind::RefCapture;
                track(std::move(v));
                params_.push_back(varIdOf(name));
            }
            if (fn_.lam.capturesThis) {
                TrackedVar v;
                v.name = "this";
                v.declLine = c_.line(fn_.lam.intro);
                v.kind = VarKind::ThisCapture;
                track(std::move(v));
                params_.push_back(varIdOf("this"));
            }
        }
    }

    /** Call @p fun for every body sig index outside nested lambdas. */
    template <typename F>
    void
    forEachBodyToken(F fun)
    {
        for (int i = fn_.bodyBegin + 1; i < fn_.bodyEnd; ++i) {
            auto it = lambdaAt_.find(i);
            if (it != lambdaAt_.end()) {
                i = it->second->bodyEnd;
                continue;
            }
            fun(i);
        }
    }

    /** Sig index of the `<` opening the template list closing at
     *  @p closeTok (a ">" / ">>"), or -1. */
    int
    findTemplateOpen(int closeTok) const
    {
        int depth = 0;
        for (int j = closeTok; j >= 0 && closeTok - j < 64; --j) {
            const std::string &t = c_.text(j);
            if (t == ">")
                ++depth;
            else if (t == ">>")
                depth += 2;
            else if (t == "<" && --depth == 0)
                return j;
        }
        return -1;
    }

    std::vector<VarState>
    entryState() const
    {
        std::vector<VarState> st(vars_.size());
        for (int p : params_) {
            st[static_cast<std::size_t>(p)].s = TaintState::Clean;
            st[static_cast<std::size_t>(p)].declLine =
                vars_[static_cast<std::size_t>(p)].declLine;
        }
        return st;
    }

    void
    solve()
    {
        const std::size_t n = fn_.blocks.size();
        in_.assign(n, std::vector<VarState>(vars_.size()));
        in_[0] = entryState();
        bool changed = true;
        for (int iter = 0; changed && iter < 64; ++iter) {
            changed = false;
            for (std::size_t b = 0; b < n; ++b) {
                std::vector<VarState> out = in_[b];
                walkBlock(static_cast<int>(b), out, /*report=*/false);
                for (int s : fn_.blocks[b].succs) {
                    auto &dst = in_[static_cast<std::size_t>(s)];
                    for (std::size_t v = 0; v < vars_.size(); ++v)
                        changed |= dst[v].mergeFrom(out[v]);
                }
            }
        }
    }

    void
    walkBlock(int b, std::vector<VarState> &st, bool report)
    {
        for (const auto &[begin, end] :
             fn_.blocks[static_cast<std::size_t>(b)].ranges) {
            for (int i = begin; i < end; ++i) {
                auto lit = lambdaAt_.find(i);
                if (lit != lambdaAt_.end()) {
                    visitLambda(*lit->second, st, report);
                    i = lit->second->bodyEnd;
                    continue;
                }
                auto dit = declAt_.find(i);
                if (dit != declAt_.end() && dit->second >= 0) {
                    auto &vs = st[static_cast<std::size_t>(dit->second)];
                    vs.s = TaintState::Clean;
                    vs.declLine = c_.line(i);
                    continue;
                }
                auto sit = suspAt_.find(i);
                if (sit != suspAt_.end()) {
                    for (auto &vs : st) {
                        if (vs.s == TaintState::Clean) {
                            vs.s = TaintState::Tainted;
                            vs.hopLine = sit->second->line;
                            vs.hopCallee = sit->second->callee;
                        }
                    }
                    continue;
                }
                if (!c_.isIdent(i) && !c_.is(i, "this"))
                    continue;
                if (memberContext(i))
                    continue;
                const int v = varIdOf(c_.text(i));
                if (v < 0)
                    continue;
                if (report &&
                    st[static_cast<std::size_t>(v)].s ==
                        TaintState::Tainted)
                    reportUse(v, st[static_cast<std::size_t>(v)],
                              c_.line(i));
            }
        }
    }

    /** Capturing a tracked binding *is* a use at creation time. */
    void
    visitLambda(const Lambda &lam, std::vector<VarState> &st,
                bool report)
    {
        if (!report)
            return;
        auto useIfTainted = [&](const std::string &name, int line) {
            const int v = varIdOf(name);
            if (v >= 0 && st[static_cast<std::size_t>(v)].s ==
                              TaintState::Tainted)
                reportUse(v, st[static_cast<std::size_t>(v)], line);
        };
        for (const auto &[name, line] : lam.refCaptures)
            useIfTainted(name, line);
        for (const auto &[name, line] : lam.valCaptures)
            useIfTainted(name, line);
        if (lam.refDefault || lam.valDefault) {
            for (int i = lam.bodyBegin + 1; i < lam.bodyEnd; ++i) {
                if (c_.isIdent(i) && !memberContext(i) &&
                    varIdOf(c_.text(i)) >= 0)
                    useIfTainted(c_.text(i), c_.line(lam.intro));
            }
        }
    }

    void
    reportUse(int v, const VarState &vs, int useLine)
    {
        const TrackedVar &tv = vars_[static_cast<std::size_t>(v)];
        std::vector<TraceStep> trace;
        std::string bindNote;
        switch (tv.kind) {
        case VarKind::Ref:
            bindNote = "reference '" + tv.name + "' bound here, "
                       "before the hop";
            break;
        case VarKind::RefCapture:
            bindNote = "'" + tv.name + "' captured by reference here";
            break;
        case VarKind::ThisCapture:
            bindNote = "lambda captures `this` here";
            break;
        case VarKind::DomainLocal:
            bindNote = "domain-local " + tv.cls + " '" + tv.name +
                       "' bound here";
            break;
        }
        trace.push_back({vs.declLine ? vs.declLine : tv.declLine,
                         bindNote});
        trace.push_back({vs.hopLine,
                         "co_await " + vs.hopCallee +
                             "(...) suspension point: the coroutine "
                             "resumes in another domain"});
        const bool h1 = tv.kind != VarKind::DomainLocal;
        trace.push_back({useLine, h1 ? "stale use after the hop"
                                     : "cross-domain use after the "
                                       "hop"});
        if (h1) {
            sink_("H1", useLine,
                  "'" + tv.name + "' was bound before a migrating "
                  "co_await " + vs.hopCallee + "(...) and used after "
                  "it: the coroutine resumed in another domain, so the "
                  "pre-hop reference is stale — re-bind it after the "
                  "hop",
                  std::move(trace));
        } else {
            sink_("C1", useLine,
                  "domain-local " + tv.cls + " '" + tv.name + "' used "
                  "after a migrating co_await " + vs.hopCallee +
                  "(...): the object belongs to the pre-hop domain; "
                  "funnel the work back through Domains::post (anchor "
                  "tile) instead",
                  std::move(trace));
        }
    }

    const Cursor &c_;
    const Func &fn_;
    const SymbolIndex &sym_;
    const FlowSink &sink_;

    std::vector<TrackedVar> vars_;
    std::vector<int> params_; ///< var ids live at entry
    std::map<int, const Lambda *> lambdaAt_;
    std::map<int, const Suspension *> suspAt_;
    std::map<int, int> declAt_; ///< sig index of a decl's name -> id
    std::vector<std::vector<VarState>> in_;
};

/** A stack local of the enclosing function (for L3/C1 checks). */
struct LocalDecl
{
    std::string name;
    int line = 0;
};

/** Collect parameter + local-variable names of @p fn (pattern-based,
 *  outside nested lambdas). */
std::vector<LocalDecl>
collectLocals(const Cursor &c, const Func &fn)
{
    std::vector<LocalDecl> out;
    auto add = [&](const std::string &name, int line) {
        for (const auto &d : out)
            if (d.name == name)
                return;
        out.push_back({name, line});
    };

    if (fn.paramBegin >= 0) {
        for (int i = fn.paramBegin + 1; i < fn.paramEnd; ++i) {
            if (!c.isIdent(i))
                continue;
            const std::string &after = c.text(i + 1);
            const std::string &prev = c.text(i - 1);
            if ((after == "," || after == ")" || after == "=") &&
                (c.isIdent(i - 1) || prev == "&" || prev == "*" ||
                 prev == ">" || prev == ">>"))
                add(c.text(i), c.line(i));
        }
    }

    std::map<int, const Lambda *> lambdaAt;
    for (const Lambda &l : fn.lambdas)
        lambdaAt[l.intro] = &l;
    for (int i = fn.bodyBegin + 1; i < fn.bodyEnd; ++i) {
        auto it = lambdaAt.find(i);
        if (it != lambdaAt.end()) {
            i = it->second->bodyEnd;
            continue;
        }
        if (c.is(i, "struct") || c.is(i, "class") || c.is(i, "union")) {
            // Local record definition (awaiter structs): its members
            // are not frame storage — skip the body.
            int j = i + 1;
            while (j < fn.bodyEnd && !c.is(j, "{") && !c.is(j, ";"))
                ++j;
            if (c.is(j, "{")) {
                i = c.match(j, "{", "}");
                continue;
            }
        }
        if (!c.isIdent(i) || kDeclContextBreakers.count(c.text(i)))
            continue;
        const std::string &prev = c.text(i - 1);
        if (!(prev == ";" || prev == "{" || prev == "}" ||
              prev == "(" || prev == "const" || prev == "constexpr"))
            continue;
        int j = i + 1;
        if (c.is(j, "<"))
            j = c.skipTemplateArgs(j);
        while (c.is(j, "&") || c.is(j, "*"))
            ++j;
        if (!c.isIdent(j))
            continue;
        const std::string &after = c.text(j + 1);
        if (after == "=" || after == ";" || after == "{" ||
            after == "(" || after == ":")
            add(c.text(j), c.line(j));
    }
    return out;
}

const LocalDecl *
findLocal(const std::vector<LocalDecl> &locals, const std::string &n)
{
    for (const auto &d : locals)
        if (d.name == n)
            return &d;
    return nullptr;
}

/** Does the lambda re-declare @p name — an init-capture or a local in
 *  the body — shadowing the enclosing binding? */
bool
redeclaredInLambda(const Cursor &c, const Lambda &lam,
                   const std::string &name)
{
    for (const auto &[n, line] : lam.initCaptures)
        if (n == name)
            return true;
    for (int i = lam.bodyBegin + 1; i < lam.bodyEnd; ++i) {
        if (!c.isIdent(i) || c.text(i) != name)
            continue;
        // A declaration is `Type name` or `Type &name` / `Type *name`;
        // a bare `&name` (address-of) or `*name` (deref) is a use.
        const std::string &prev = c.text(i - 1);
        if (c.isIdent(i - 1))
            return true;
        if ((prev == "&" || prev == "*") && c.isIdent(i - 2))
            return true;
    }
    return false;
}

/**
 * The deferred call a lambda is an argument of: scan back from the
 * introducer for `name (` whose close spans past the lambda body.
 * Returns the sig index of the sink's name, or -1.
 */
int
enclosingSink(const Cursor &c, const Func &fn, const Lambda &lam,
              const std::set<std::string> &sinks)
{
    const int lo = std::max(fn.bodyBegin, lam.intro - 96);
    for (int k = lam.intro - 1; k >= lo; --k) {
        if (!c.isIdent(k) || !sinks.count(c.text(k)) ||
            !c.is(k + 1, "("))
            continue;
        if (c.match(k + 1, "(", ")") > lam.bodyEnd)
            return k;
    }
    return -1;
}

/** X2 + the lambda-capture halves of C1/L3 for one function. */
class FuncSiteChecks
{
  public:
    FuncSiteChecks(const Cursor &c, const Func &fn,
                   const SymbolIndex &sym, const FlowSink &sink)
        : c_(c), fn_(fn), sym_(sym), sink_(sink),
          locals_(collectLocals(c, fn))
    {
        for (const Lambda &l : fn.lambdas)
            lambdaAt_[l.intro] = &l;
    }

    void
    run()
    {
        collectForeignQueueVars();
        checkScheduleSites();
        for (const Lambda &l : fn_.lambdas) {
            checkL3(l);
            checkC1Capture(l);
        }
    }

  private:
    struct ForeignQueue
    {
        std::string name;
        int declLine = 0;
        std::string source; ///< queues / queues_ / ...
        int sourceLine = 0;
    };

    void
    forEachBodyToken(const std::function<void(int)> &fun)
    {
        for (int i = fn_.bodyBegin + 1; i < fn_.bodyEnd; ++i) {
            auto it = lambdaAt_.find(i);
            if (it != lambdaAt_.end()) {
                i = it->second->bodyEnd;
                continue;
            }
            fun(i);
        }
    }

    /** `EventQueue &q = ...foreign source...` style bindings. */
    void
    collectForeignQueueVars()
    {
        forEachBodyToken([&](int i) {
            if (!c_.isIdent(i))
                return;
            const std::string &ty = c_.text(i);
            if (ty != "EventQueue" && ty != "auto")
                return;
            int j = i + 1;
            bool indirect = false;
            while (c_.is(j, "&") || c_.is(j, "*") || c_.is(j, "const")) {
                indirect = true;
                ++j;
            }
            if (!indirect || !c_.isIdent(j))
                return;
            const std::string &after = c_.text(j + 1);
            if (after != "=" && after != ":")
                return;
            // Scan the initializer for a foreign-queue source.
            for (int k = j + 2; k < fn_.bodyEnd && k < j + 40; ++k) {
                const std::string &t = c_.text(k);
                if (t == ";" || t == "{")
                    break;
                if (c_.isIdent(k) && kForeignQueueSources.count(t) &&
                    (c_.is(k + 1, "(") || c_.is(k + 1, "["))) {
                    foreign_.push_back({c_.text(j), c_.line(j), t,
                                        c_.line(k)});
                    break;
                }
            }
        });
    }

    /** Direct `recv.schedule*(...)` sites whose receiver traces to a
     *  foreign-domain queue. */
    void
    checkScheduleSites()
    {
        forEachBodyToken([&](int i) {
            if (!c_.isIdent(i) || !kScheduleFamily.count(c_.text(i)) ||
                !c_.is(i + 1, "("))
                return;
            const std::string &prev = c_.text(i - 1);
            if (prev != "." && prev != "->")
                return;
            // Walk the receiver's postfix chain backwards.
            std::vector<int> recvIdents;
            int k = i - 2;
            while (k > fn_.bodyBegin) {
                const std::string &t = c_.text(k);
                if (t == ")") {
                    k = c_.matchBack(k, "(", ")") - 1;
                    continue;
                }
                if (t == "]") {
                    k = c_.matchBack(k, "[", "]") - 1;
                    continue;
                }
                if (c_.isIdent(k)) {
                    recvIdents.push_back(k);
                    const std::string &p = c_.text(k - 1);
                    if (p == "." || p == "->" || p == "::") {
                        k -= 2;
                        continue;
                    }
                }
                break;
            }
            for (int r : recvIdents) {
                const std::string &name = c_.text(r);
                if (kForeignQueueSources.count(name)) {
                    emitX2(i, c_.line(r),
                           "queue obtained from " + name +
                               " (a foreign domain's queue)");
                    return;
                }
                for (const ForeignQueue &fq : foreign_) {
                    if (fq.name == name) {
                        emitX2(i, fq.declLine,
                               "'" + fq.name + "' bound from " +
                                   fq.source +
                                   " (a foreign domain's queue)");
                        return;
                    }
                }
            }
        });
    }

    void
    emitX2(int callTok, int srcLine, std::string srcNote)
    {
        std::vector<TraceStep> trace;
        trace.push_back({srcLine, std::move(srcNote)});
        trace.push_back({c_.line(callTok),
                         "direct " + c_.text(callTok) +
                             "() bypasses Domains::post/sendKeyed"});
        sink_("X2", c_.line(callTok),
              "direct EventQueue::" + c_.text(callTok) + "() on a "
              "foreign domain's queue: cross-domain work must go "
              "through Domains::post/postAbs or "
              "ShardedExecutor::sendKeyed so it merges in the "
              "partition-invariant (tick, key) order",
              std::move(trace));
    }

    /** L3: address of a stack local escaping into a deferred
     *  callable. */
    void
    checkL3(const Lambda &lam)
    {
        const int sinkTok =
            enclosingSink(c_, fn_, lam, kDeferredSinks);
        if (sinkTok < 0)
            return;
        auto report = [&](const LocalDecl &d, int escapeLine) {
            std::vector<TraceStep> trace;
            trace.push_back({d.line, "stack local '" + d.name +
                                         "' declared here"});
            trace.push_back({escapeLine,
                             "address of '" + d.name + "' escapes "
                             "into the deferred callable"});
            trace.push_back({c_.line(sinkTok),
                             "callable outlives the frame (handed "
                             "to " + c_.text(sinkTok) + ")"});
            sink_("L3", escapeLine,
                  "address of stack local '" + d.name + "' escapes "
                  "into a callable handed to " + c_.text(sinkTok) +
                  "(): the callable runs after the frame is gone — "
                  "copy the value, or hand over owning/stable "
                  "storage",
                  std::move(trace));
        };
        for (const auto &[name, line] : lam.addrInitCaptures) {
            if (const LocalDecl *d = findLocal(locals_, name))
                report(*d, line);
        }
        // `&local` in the body (arguments, assignments, returns).
        for (int i = lam.bodyBegin + 1; i < lam.bodyEnd; ++i) {
            if (!c_.is(i, "&") || !c_.isIdent(i + 1))
                continue;
            const std::string &p = c_.text(i - 1);
            if (!(p == "(" || p == "," || p == "=" || p == "{" ||
                  p == ";" || p == "return"))
                continue;
            const LocalDecl *d = findLocal(locals_, c_.text(i + 1));
            if (d && !redeclaredInLambda(c_, lam, d->name))
                report(*d, c_.line(i + 1));
        }
    }

    /** C1: a domain-local object captured into a cross-domain
     *  callable. */
    void
    checkC1Capture(const Lambda &lam)
    {
        const int sinkTok =
            enclosingSink(c_, fn_, lam, kCrossDomainSinks);
        if (sinkTok < 0)
            return;
        auto report = [&](const std::string &name, int capLine) {
            auto cit = sym_.varClass.find(name);
            const std::string cls =
                cit == sym_.varClass.end() ? "object" : cit->second;
            std::vector<TraceStep> trace;
            if (const LocalDecl *d = findLocal(locals_, name))
                trace.push_back({d->line, "domain-local " + cls +
                                              " '" + name +
                                              "' declared here"});
            trace.push_back({capLine, "'" + name + "' captured into "
                                      "the callable"});
            trace.push_back({c_.line(sinkTok),
                             "callable crosses a domain boundary "
                             "(handed to " + c_.text(sinkTok) + ")"});
            sink_("C1", capLine,
                  "domain-local " + cls + " '" + name + "' captured "
                  "into a callable handed to " + c_.text(sinkTok) +
                  "(): it would be touched from another domain — "
                  "domain-local objects (Semaphore, Join, per-tile "
                  "state) must stay in their owning domain; funnel "
                  "through an anchor tile like SimBarrier",
                  std::move(trace));
        };
        for (const auto &[name, line] : lam.refCaptures)
            if (sym_.domainLocalVars.count(name))
                report(name, line);
        for (const auto &[name, line] : lam.valCaptures)
            if (sym_.domainLocalVars.count(name))
                report(name, line);
        if (lam.refDefault || lam.valDefault) {
            for (int i = lam.bodyBegin + 1; i < lam.bodyEnd; ++i) {
                const std::string &t = c_.text(i);
                if (!c_.isIdent(i) || !sym_.domainLocalVars.count(t))
                    continue;
                const std::string &p = c_.text(i - 1);
                if (p == "." || p == "->" || p == "::")
                    continue;
                if (!findLocal(locals_, t) ||
                    redeclaredInLambda(c_, lam, t))
                    continue;
                report(t, c_.line(i));
            }
        }
    }

    const Cursor &c_;
    const Func &fn_;
    const SymbolIndex &sym_;
    const FlowSink &sink_;
    std::vector<LocalDecl> locals_;
    std::map<int, const Lambda *> lambdaAt_;
    std::vector<ForeignQueue> foreign_;
};

} // namespace

void
checkFlowRules(const SourceFile &f, const SymbolIndex &sym,
               const Config &cfg, const FlowSink &sink)
{
    const bool anyFlow =
        cfg.rules.empty() || cfg.rules.count("X2") ||
        cfg.rules.count("H1") || cfg.rules.count("C1") ||
        cfg.rules.count("L3");
    if (!anyFlow)
        return;
    Cursor c(f);
    const std::vector<Func> fns = parseFunctions(f);
    for (const Func &fn : fns) {
        FuncFlow(c, fn, sym, sink).run();
        FuncSiteChecks(c, fn, sym, sink).run();
    }
}

} // namespace takolint
