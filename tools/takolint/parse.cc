/**
 * @file
 * takolint's lightweight function-body parser (flow layer, pass 1 of
 * the flow rules). Recovers, per function:
 *
 *  - a CFG of basic blocks over significant-token ranges, with real
 *    loop back-edges (the H1 dataflow needs them: a reference re-bound
 *    at the top of each loop iteration is clean even though a hop sits
 *    at the bottom of the body);
 *  - lambda expressions with their parsed capture lists, each also
 *    emitted as its own Func so by-ref captures get hop-analyzed in
 *    the lambda's own flow;
 *  - migrating suspension points: `co_await` expressions whose awaited
 *    call is named hopTo/hopToAbs/hop (Domains' awaitables and
 *    MemorySystem's internal hop helper).
 *
 * Approximations, by design: `switch` bodies are parsed linearly with
 * an extra skip edge; return/co_return/break/continue/goto terminate
 * the current path (losing a `continue` back-edge under-approximates
 * loop taint — acceptable, the fixtures pin the supported shapes); a
 * statement is "whatever runs to the next top-level `;`".
 */

#include "flow.hh"

namespace takolint
{

namespace
{

const std::set<std::string> kMigratingCallees = {"hopTo", "hopToAbs",
                                                 "hop"};

bool
isLambdaIntro(const Cursor &c, int i)
{
    if (!c.is(i, "["))
        return false;
    // Lambda introducer vs. subscript: a lambda's `[` cannot follow an
    // identifier / `)` / `]` (those are subscripts) or a literal.
    const Token &prev = c.tok(i - 1);
    if (prev.kind == Tok::Ident || prev.kind == Tok::Number ||
        prev.text == ")" || prev.text == "]")
        return false;
    return true;
}

/** Parse the capture list + find the body braces of the lambda whose
 *  `[` is at @p intro. Returns false when no body follows (it was an
 *  attribute like [[nodiscard]] or an aggregate init). */
bool
parseLambda(const Cursor &c, int intro, Lambda &out)
{
    const int capEnd = c.match(intro, "[", "]");
    if (capEnd >= c.size())
        return false;

    // Find the body `{`: optional (params), then specifiers/trailing
    // return type, then `{`. Bail out fast on anything that cannot be
    // part of a lambda declarator.
    int j = capEnd + 1;
    if (c.is(j, "("))
        j = c.match(j, "(", ")") + 1;
    for (int guard = 0; guard < 64 && j < c.size(); ++guard) {
        const std::string &t = c.text(j);
        if (t == "{")
            break;
        if (t == "mutable" || t == "constexpr" || t == "noexcept" ||
            t == "const") {
            ++j;
            if (c.is(j, "("))
                j = c.match(j, "(", ")") + 1;
            continue;
        }
        if (t == "->") { // trailing return type, e.g. -> Task<>
            ++j;
            while (j < c.size() && !c.is(j, "{") && !c.is(j, ";") &&
                   !c.is(j, ")") && !c.is(j, ",")) {
                if (c.is(j, "<")) {
                    j = c.skipTemplateArgs(j);
                    continue;
                }
                ++j;
            }
            continue;
        }
        return false; // `[x]` was a subscript-ish construct after all
    }
    if (!c.is(j, "{"))
        return false;

    out.intro = intro;
    out.bodyBegin = j;
    out.bodyEnd = c.match(j, "{", "}");

    // Capture list: `&`, `=`, `this`, `&name`, `name`, `name = expr`.
    for (int k = intro + 1; k < capEnd; ++k) {
        const std::string &t = c.text(k);
        if (t == "this" || t == "*") { // `this` / `*this`
            out.capturesThis = true;
            continue;
        }
        if (t == "&") {
            if (c.isIdent(k + 1)) {
                out.refCaptures.emplace_back(c.text(k + 1),
                                             c.line(k + 1));
                ++k;
            } else {
                out.refDefault = true;
            }
            continue;
        }
        if (t == "=") {
            out.valDefault = true;
            continue;
        }
        if (c.isIdent(k)) {
            const std::string name = t;
            const int line = c.line(k);
            if (c.is(k + 1, "=")) { // init-capture
                out.initCaptures.emplace_back(name, line);
                if (c.is(k + 2, "&") && c.isIdent(k + 3)) {
                    out.addrInitCaptures.emplace_back(c.text(k + 3),
                                                      c.line(k + 3));
                }
                // Skip the initializer up to the next top-level comma.
                k += 2;
                int depth = 0;
                while (k < capEnd) {
                    const std::string &e = c.text(k);
                    if (e == "(" || e == "[" || e == "{")
                        ++depth;
                    else if (e == ")" || e == "]" || e == "}")
                        --depth;
                    else if (e == "," && depth == 0)
                        break;
                    ++k;
                }
            } else {
                out.valCaptures.emplace_back(name, line);
            }
        }
    }
    return true;
}

/** Builds one Func's CFG; nested lambdas are recorded and skipped. */
class BodyParser
{
  public:
    BodyParser(const Cursor &c, Func &fn) : c_(c), fn_(fn) {}

    void
    run()
    {
        const int entry = newBlock();
        const int exit =
            parseSeq(fn_.bodyBegin + 1, fn_.bodyEnd, entry);
        (void)exit;
    }

  private:
    int
    newBlock()
    {
        fn_.blocks.push_back({});
        return static_cast<int>(fn_.blocks.size()) - 1;
    }

    void edge(int a, int b) { fn_.blocks[a].succs.push_back(b); }

    void
    addRange(int blk, int begin, int end)
    {
        if (begin < end)
            fn_.blocks[blk].ranges.emplace_back(begin, end);
    }

    /** Record migrating co_awaits and nested lambdas in [begin, end);
     *  lambda interiors are skipped (they are their own Func). */
    void
    scanRange(int begin, int end)
    {
        for (int i = begin; i < end; ++i) {
            if (isLambdaIntro(c_, i)) {
                Lambda lam;
                if (parseLambda(c_, i, lam)) {
                    fn_.lambdas.push_back(lam);
                    i = lam.bodyEnd; // interior belongs to the lambda
                    continue;
                }
            }
            if (c_.is(i, "co_await")) {
                // The awaited expression runs to the statement end;
                // a hopTo/hopToAbs/hop call anywhere in it migrates.
                for (int j = i + 1; j < end && j < i + 48; ++j) {
                    const std::string &t = c_.text(j);
                    if (t == ";" || t == "{")
                        break;
                    if (c_.isIdent(j) && kMigratingCallees.count(t) &&
                        c_.is(j + 1, "(")) {
                        fn_.suspensions.push_back(
                            {i, c_.line(j), t});
                        break;
                    }
                }
            }
        }
    }

    /** Parse statements in [i, end) starting in block @p cur; returns
     *  the exit block. */
    int
    parseSeq(int i, int end, int cur)
    {
        while (i < end) {
            auto [next, exit] = parseStmt(i, end, cur);
            if (next <= i)
                ++next; // never stall on unexpected tokens
            i = next;
            cur = exit;
        }
        return cur;
    }

    /** One statement at @p i; returns (index past it, exit block). */
    std::pair<int, int>
    parseStmt(int i, int end, int cur)
    {
        const std::string &t = c_.text(i);

        if (t == "{") {
            const int close = c_.match(i, "{", "}");
            const int exit = parseSeq(i + 1, close, cur);
            return {close + 1, exit};
        }
        if (t == "if") {
            int j = i + 1;
            if (c_.is(j, "constexpr"))
                ++j;
            const int condClose = c_.match(j, "(", ")");
            emitStmt(cur, i, condClose + 1);
            const int thenB = newBlock();
            edge(cur, thenB);
            auto [afterThen, thenExit] =
                parseStmt(condClose + 1, end, thenB);
            if (c_.is(afterThen, "else")) {
                const int elseB = newBlock();
                edge(cur, elseB);
                auto [afterElse, elseExit] =
                    parseStmt(afterThen + 1, end, elseB);
                const int join = newBlock();
                edge(thenExit, join);
                edge(elseExit, join);
                return {afterElse, join};
            }
            const int join = newBlock();
            edge(cur, join);
            edge(thenExit, join);
            return {afterThen, join};
        }
        if (t == "while" || t == "for") {
            const int condClose = c_.match(i + 1, "(", ")");
            const int header = newBlock();
            edge(cur, header);
            emitStmt(header, i, condClose + 1);
            const int body = newBlock();
            edge(header, body);
            auto [after, bodyExit] =
                parseStmt(condClose + 1, end, body);
            edge(bodyExit, header); // loop back-edge
            const int afterB = newBlock();
            edge(header, afterB);
            return {after, afterB};
        }
        if (t == "do") {
            const int body = newBlock();
            edge(cur, body);
            auto [after, bodyExit] = parseStmt(i + 1, end, body);
            // `while ( cond ) ;`
            int j = after;
            if (c_.is(j, "while")) {
                const int condClose = c_.match(j + 1, "(", ")");
                emitStmt(bodyExit, j, condClose + 1);
                j = condClose + 1;
                if (c_.is(j, ";"))
                    ++j;
            }
            edge(bodyExit, body); // loop back-edge
            const int afterB = newBlock();
            edge(bodyExit, afterB);
            return {j, afterB};
        }
        if (t == "switch") {
            const int condClose = c_.match(i + 1, "(", ")");
            emitStmt(cur, i, condClose + 1);
            const int body = newBlock();
            edge(cur, body);
            int bodyExit = body;
            int j = condClose + 1;
            if (c_.is(j, "{")) {
                const int close = c_.match(j, "{", "}");
                bodyExit = parseSeq(j + 1, close, body);
                j = close + 1;
            }
            const int afterB = newBlock();
            edge(bodyExit, afterB);
            edge(cur, afterB); // all cases may be skipped
            return {j, afterB};
        }
        if (t == "case") {
            int j = i;
            while (j < end && !c_.is(j, ":"))
                ++j;
            emitStmt(cur, i, j + 1);
            return {j + 1, cur};
        }
        if (t == "default" && c_.is(i + 1, ":")) {
            return {i + 2, cur};
        }
        if (t == "return" || t == "co_return" || t == "break" ||
            t == "continue" || t == "goto") {
            const int semi = findStmtEnd(i, end);
            emitStmt(cur, i, semi + 1);
            return {semi + 1, newBlock()}; // path terminator
        }
        if (t == "else") { // stray else (shouldn't happen): skip token
            return {i + 1, cur};
        }

        const int semi = findStmtEnd(i, end);
        emitStmt(cur, i, semi + 1);
        return {semi + 1, cur};
    }

    /** Index of the `;` ending the simple statement at @p i (skipping
     *  nested parens/brackets/braces, so lambdas and brace-inits stay
     *  inside one statement); @p end - 1 when none. */
    int
    findStmtEnd(int i, int end)
    {
        for (int j = i; j < end; ++j) {
            const std::string &t = c_.text(j);
            if (t == "(")
                j = c_.match(j, "(", ")");
            else if (t == "[")
                j = c_.match(j, "[", "]");
            else if (t == "{")
                j = c_.match(j, "{", "}");
            else if (t == ";")
                return j;
            else if (t == "}")
                return j - 1; // ran off the enclosing block
        }
        return end - 1;
    }

    void
    emitStmt(int blk, int begin, int end)
    {
        addRange(blk, begin, end);
        scanRange(begin, end);
    }

    const Cursor &c_;
    Func &fn_;
};

const std::set<std::string> kNotFunctionNames = {
    "if",     "for",    "while",   "switch", "catch", "return",
    "sizeof", "static_assert", "alignof", "decltype", "co_await",
    "co_return", "co_yield", "new", "delete", "throw", "assert",
    "noexcept", "operator", "alignas", "panic", "panic_if",
    "defined",
};

/**
 * Starting just after a function's `)` at @p close, skip specifiers,
 * a trailing return type, and a constructor init-list; returns the sig
 * index of the body `{`, or -1 when this is a declaration.
 */
int
findFunctionBody(const Cursor &c, int close)
{
    int j = close + 1;
    static const std::set<std::string> kSpecifiers = {
        "const", "noexcept", "override", "final", "mutable",
        "volatile", "&", "&&", "try",
    };
    for (int guard = 0; guard < 128 && j < c.size(); ++guard) {
        const std::string &s = c.text(j);
        if (kSpecifiers.count(s)) {
            ++j;
            if (s == "noexcept" && c.is(j, "("))
                j = c.match(j, "(", ")") + 1;
            continue;
        }
        if (s == "->") { // trailing return type
            ++j;
            while (j < c.size() && !c.is(j, "{") && !c.is(j, ";") &&
                   !c.is(j, "=")) {
                if (c.is(j, "<")) {
                    j = c.skipTemplateArgs(j);
                    continue;
                }
                ++j;
            }
            continue;
        }
        if (s == ":") {
            // Constructor init-list: `name(args)` / `name{args}`
            // members separated by commas, then the body `{`.
            ++j;
            for (int g2 = 0; g2 < 128 && j < c.size(); ++g2) {
                while (c.isIdent(j) || c.is(j, "::"))
                    ++j;
                if (c.is(j, "<"))
                    j = c.skipTemplateArgs(j);
                if (c.is(j, "("))
                    j = c.match(j, "(", ")") + 1;
                else if (c.is(j, "{"))
                    j = c.match(j, "{", "}") + 1;
                else
                    return -1; // not an init-list after all
                if (c.is(j, ",")) {
                    ++j;
                    continue;
                }
                break;
            }
            continue;
        }
        break;
    }
    return c.is(j, "{") ? j : -1;
}

/** Parse @p lam (and, recursively, its nested lambdas) into Funcs. */
void
emitLambdaFuncs(const Cursor &c, const Lambda &lam,
                std::vector<Func> &out)
{
    Func fn;
    fn.name = "<lambda>";
    fn.isLambda = true;
    fn.lam = lam;
    fn.bodyBegin = lam.bodyBegin;
    fn.bodyEnd = lam.bodyEnd;
    const int capEnd = c.match(lam.intro, "[", "]");
    if (c.is(capEnd + 1, "(")) {
        fn.paramBegin = capEnd + 1;
        fn.paramEnd = c.match(capEnd + 1, "(", ")");
    }
    BodyParser(c, fn).run();
    std::vector<Lambda> nested = fn.lambdas;
    out.push_back(std::move(fn));
    for (const Lambda &inner : nested)
        emitLambdaFuncs(c, inner, out);
}

} // namespace

std::vector<Func>
parseFunctions(const SourceFile &f)
{
    Cursor c(f);
    std::vector<Func> out;

    for (int i = 0; i < c.size(); ++i) {
        // Namespace-scope lambdas (rare) still deserve analysis.
        if (isLambdaIntro(c, i)) {
            Lambda lam;
            if (parseLambda(c, i, lam)) {
                emitLambdaFuncs(c, lam, out);
                i = lam.bodyEnd;
                continue;
            }
        }
        if (!c.isIdent(i) || !c.is(i + 1, "(") ||
            kNotFunctionNames.count(c.text(i)))
            continue;
        // `name(...)` — possibly a function head. Reject obvious call
        // sites: a call is preceded by `.`, `->`, or an operator that
        // cannot end a declaration's type.
        const std::string &prev = c.text(i - 1);
        if (prev == "." || prev == "->" || prev == "(" || prev == "," ||
            prev == "=" || prev == "return" || prev == "co_await" ||
            prev == "co_return" || prev == "!" || prev == "<")
            continue;
        const int close = c.match(i + 1, "(", ")");
        if (close >= c.size())
            continue;
        const int body = findFunctionBody(c, close);
        if (body < 0)
            continue;

        Func fn;
        // Qualified name: walk back over `A ::` pairs.
        int b = i;
        fn.name = c.text(b);
        while (c.is(b - 1, "::") && c.isIdent(b - 2)) {
            b -= 2;
            fn.name = c.text(b) + "::" + fn.name;
        }
        fn.paramBegin = i + 1;
        fn.paramEnd = close;
        fn.bodyBegin = body;
        fn.bodyEnd = c.match(body, "{", "}");
        BodyParser(c, fn).run();
        std::vector<Lambda> lams = fn.lambdas;
        const int resume = fn.bodyEnd;
        out.push_back(std::move(fn));
        for (const Lambda &lam : lams)
            emitLambdaFuncs(c, lam, out);
        i = resume;
    }
    return out;
}

} // namespace takolint
