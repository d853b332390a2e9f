#include "expt/spec.hh"

#include <set>
#include <sstream>

#include "sim/stats.hh"

namespace tako::expt
{

namespace
{

/** Reject any key of @p obj not in @p allowed (catches misspellings). */
bool
checkKeys(const Json &obj, const std::set<std::string> &allowed,
          const std::string &where, std::string &err)
{
    for (const auto &[k, v] : obj.asObject()) {
        if (!allowed.count(k)) {
            err = where + ": unknown key \"" + k + "\"";
            return false;
        }
    }
    return true;
}

bool
parseGolden(const Json &node, const std::string &where,
            std::map<std::string, GoldenMetric> &out, std::string &err)
{
    if (!node.isObject()) {
        err = where + ": \"golden\" must be an object";
        return false;
    }
    for (const auto &[metric, expect] : node.asObject()) {
        GoldenMetric g;
        if (expect.isNumber()) {
            // Shorthand: "metric": 2.5 means exact match.
            g.value = expect.asNumber();
        } else if (expect.isObject()) {
            const std::string gw = where + " golden \"" + metric + "\"";
            if (!checkKeys(expect, {"value", "rel_tol", "abs_tol"}, gw,
                           err))
                return false;
            if (!expect["value"].isNumber()) {
                err = gw + ": missing numeric \"value\"";
                return false;
            }
            g.value = expect["value"].asNumber();
            g.relTol = expect["rel_tol"].asNumber(0);
            g.absTol = expect["abs_tol"].asNumber(0);
            if (g.relTol < 0 || g.absTol < 0) {
                err = gw + ": tolerances must be >= 0";
                return false;
            }
        } else {
            err = where + " golden \"" + metric +
                  "\": expected number or {value, rel_tol, abs_tol}";
            return false;
        }
        out.emplace(metric, g);
    }
    return true;
}

/** Flatten a takosim/args object into ordered --key=value pairs. */
bool
parseArgs(const Json &node, const std::string &where,
          std::vector<std::pair<std::string, std::string>> &out,
          std::string &err)
{
    for (const auto &[k, v] : node.asObject()) {
        std::string val;
        if (v.isString()) {
            val = v.asString();
        } else if (v.isNumber()) {
            std::ostringstream os;
            json::writeNumber(os, v.asNumber());
            val = os.str();
        } else if (v.isBool()) {
            val = v.asBool() ? '1' : '0';
        } else {
            err = where + ": argument \"" + k +
                  "\" must be a string, number, or bool";
            return false;
        }
        out.emplace_back(k, val);
    }
    return true;
}

} // namespace

bool
SuiteSpec::parse(const Json &doc, SuiteSpec &out, std::string &err)
{
    out = SuiteSpec{};
    if (!doc.isObject()) {
        err = "spec must be a JSON object";
        return false;
    }
    if (!checkKeys(doc, {"suite", "defaults", "runs"}, "spec", err))
        return false;
    if (!doc["suite"].isString() || doc["suite"].asString().empty()) {
        err = "spec: missing \"suite\" name";
        return false;
    }
    out.suite = doc["suite"].asString();

    RunSpec defaults;
    const Json &def = doc["defaults"];
    if (!def.isNull()) {
        if (!def.isObject() ||
            !checkKeys(def, {"timeout_sec", "retries", "quick"},
                       "defaults", err)) {
            if (err.empty())
                err = "defaults: must be an object";
            return false;
        }
        defaults.timeoutSec = def["timeout_sec"].asNumber(
            defaults.timeoutSec);
        defaults.retries = static_cast<unsigned>(
            def["retries"].asNumber(defaults.retries));
        defaults.quick = def["quick"].asBool(defaults.quick);
    }

    if (!doc["runs"].isArray() || doc["runs"].asArray().empty()) {
        err = "spec: \"runs\" must be a non-empty array";
        return false;
    }

    std::set<std::string> names;
    for (const Json &rnode : doc["runs"].asArray()) {
        RunSpec r = defaults;
        if (!rnode.isObject()) {
            err = "runs: each run must be an object";
            return false;
        }
        r.name = rnode["name"].asString();
        if (r.name.empty()) {
            err = "runs: every run needs a non-empty \"name\"";
            return false;
        }
        const std::string where = "run \"" + r.name + "\"";
        if (!names.insert(r.name).second) {
            err = where + ": duplicate run name";
            return false;
        }
        if (!checkKeys(rnode,
                       {"name", "bench", "takosim", "args", "golden",
                        "extras", "timeout_sec", "retries", "quick"},
                       where, err))
            return false;

        const bool has_bench = !rnode["bench"].isNull();
        const bool has_sim = !rnode["takosim"].isNull();
        if (has_bench == has_sim) {
            err = where +
                  ": exactly one of \"bench\" or \"takosim\" required";
            return false;
        }
        if (has_bench) {
            if (!rnode["bench"].isString() ||
                rnode["bench"].asString().empty()) {
                err = where + ": \"bench\" must be a binary name";
                return false;
            }
            r.kind = RunKind::Bench;
            r.target = rnode["bench"].asString();
            if (!rnode["args"].isNull()) {
                if (!rnode["args"].isObject()) {
                    err = where + ": \"args\" must be an object";
                    return false;
                }
                if (!parseArgs(rnode["args"], where, r.args, err))
                    return false;
            }
        } else {
            if (!rnode["takosim"].isObject()) {
                err = where + ": \"takosim\" must be an object of "
                              "option=value pairs";
                return false;
            }
            const bool has_workload =
                rnode["takosim"].contains("workload");
            const bool has_trace = rnode["takosim"].contains("trace");
            if (has_workload == has_trace) {
                err = where + ": takosim runs need exactly one of "
                              "\"workload\" or \"trace\"";
                return false;
            }
            if (!rnode["args"].isNull()) {
                err = where + ": takosim runs take options inside "
                              "\"takosim\", not \"args\"";
                return false;
            }
            r.kind = RunKind::Takosim;
            r.traceRun = has_trace;
            r.target = rnode["takosim"][has_trace ? "trace" : "workload"]
                           .asString();
            if (r.target.empty()) {
                err = where + ": \"" +
                      (has_trace ? std::string("trace")
                                 : std::string("workload")) +
                      "\" must be a non-empty string";
                return false;
            }
            if (!parseArgs(rnode["takosim"], where, r.args, err))
                return false;
            // workload/trace is carried in target; drop it from the
            // args so the command builder doesn't emit it twice.
            std::erase_if(r.args, [](const auto &kv) {
                return kv.first == "workload" || kv.first == "trace";
            });
        }

        r.timeoutSec = rnode["timeout_sec"].asNumber(r.timeoutSec);
        if (r.timeoutSec <= 0) {
            err = where + ": \"timeout_sec\" must be > 0";
            return false;
        }
        if (!rnode["retries"].isNull())
            r.retries =
                static_cast<unsigned>(rnode["retries"].asNumber(0));
        r.quick = rnode["quick"].asBool(r.quick);
        if (!rnode["golden"].isNull() &&
            !parseGolden(rnode["golden"], where, r.golden, err))
            return false;
        if (!rnode["extras"].isNull()) {
            if (!rnode["extras"].isArray()) {
                err = where +
                      ": \"extras\" must be an array of metric names";
                return false;
            }
            for (const Json &e : rnode["extras"].asArray()) {
                if (!e.isString() || e.asString().empty()) {
                    err = where + ": \"extras\" entries must be "
                                  "non-empty strings";
                    return false;
                }
                r.extras.push_back(e.asString());
            }
        }
        out.runs.push_back(std::move(r));
    }
    return true;
}

bool
SuiteSpec::parseFile(const std::string &path, SuiteSpec &out,
                     std::string &err)
{
    std::string jerr;
    Json doc = Json::parseFile(path, &jerr);
    if (!jerr.empty()) {
        err = jerr;
        return false;
    }
    if (!parse(doc, out, err)) {
        err = path + ": " + err;
        return false;
    }
    return true;
}

} // namespace tako::expt
