#include "fault/fault_plan.hh"

#include "harness/json.hh"
#include "sim/logging.hh"

namespace csync
{

namespace
{

const char *const kKindNames[unsigned(FaultKind::NumKinds)] = {
    "nak",
    "stall",
    "delay_supply",
    "drop_grant",
};

} // anonymous namespace

const char *
faultKindName(FaultKind kind)
{
    sim_assert(kind < FaultKind::NumKinds, "bad fault kind %u",
               unsigned(kind));
    return kKindNames[unsigned(kind)];
}

bool
faultKindFromName(const std::string &name, FaultKind *out)
{
    for (unsigned i = 0; i < unsigned(FaultKind::NumKinds); ++i) {
        if (name == kKindNames[i]) {
            if (out)
                *out = FaultKind(i);
            return true;
        }
    }
    return false;
}

std::string
faultKindList()
{
    std::string out;
    for (unsigned i = 0; i < unsigned(FaultKind::NumKinds); ++i) {
        if (i)
            out += ", ";
        out += kKindNames[i];
    }
    return out;
}

unsigned
FaultPlan::kindMask() const
{
    if (kinds.empty())
        return (1u << unsigned(FaultKind::NumKinds)) - 1;
    unsigned mask = 0;
    for (const auto &name : kinds) {
        FaultKind k;
        if (faultKindFromName(name, &k))
            mask |= 1u << unsigned(k);
    }
    return mask;
}

bool
FaultPlan::check(std::string *err) const
{
    auto fail = [&](const std::string &what) {
        if (err)
            *err = what;
        return false;
    };
    if (rate < 0.0 || rate > 1.0)
        return fail(csprintf("fault rate %g is outside [0, 1]", rate));
    for (const auto &name : kinds) {
        if (!faultKindFromName(name, nullptr)) {
            return fail(csprintf("unknown fault kind '%s' (known: %s)",
                                 name.c_str(), faultKindList().c_str()));
        }
    }
    if (enabled()) {
        if (backoffBase == 0)
            return fail("fault backoff base must be nonzero");
        if (backoffCap < backoffBase) {
            return fail(csprintf(
                "fault backoff cap %llu is below the base %llu",
                (unsigned long long)backoffCap,
                (unsigned long long)backoffBase));
        }
        if (stallTicks == 0)
            return fail("fault stall ticks must be nonzero");
        if (supplyDelayTicks == 0)
            return fail("fault supply delay ticks must be nonzero");
    }
    return true;
}

void
FaultPlan::validate() const
{
    std::string err;
    if (!check(&err))
        fatal("%s", err.c_str());
}

bool
FaultPlan::fromJson(const harness::Json &doc, FaultPlan *out,
                    std::string *err)
{
    using harness::Json;
    auto fail = [&](const std::string &what) {
        if (err)
            *err = "fault plan: " + what;
        return false;
    };
    if (!doc.isObject())
        return fail("not a JSON object");

    FaultPlan plan;
    struct TickField
    {
        const char *key;
        Tick *dst;
    };
    const TickField tick_fields[] = {
        {"stall_ticks", &plan.stallTicks},
        {"supply_delay_ticks", &plan.supplyDelayTicks},
        {"backoff_base", &plan.backoffBase},
        {"backoff_cap", &plan.backoffCap},
        {"watchdog_window", &plan.watchdogWindow},
    };
    for (const auto &kv : doc.members()) {
        const std::string &key = kv.first;
        const Json &v = kv.second;
        if (key == "rate") {
            if (!v.isNumber())
                return fail("\"rate\" must be a number");
            plan.rate = v.asNumber();
        } else if (key == "seed") {
            std::string why;
            if (!harness::readUnsigned(v, "\"seed\"", &plan.seed, &why))
                return fail(why);
        } else if (key == "target") {
            if (!v.isString())
                return fail("\"target\" must be a switch name string");
            plan.target = v.asString();
        } else if (key == "kinds") {
            if (!v.isArray())
                return fail("\"kinds\" must be an array of strings");
            plan.kinds.clear();
            for (std::size_t i = 0; i < v.size(); ++i) {
                if (!v.at(i).isString()) {
                    return fail(csprintf("\"kinds\"[%zu] is not a string",
                                         i));
                }
                plan.kinds.push_back(v.at(i).asString());
            }
        } else {
            const TickField *match = nullptr;
            for (const auto &f : tick_fields)
                if (key == f.key)
                    match = &f;
            if (!match)
                return fail(csprintf("unknown key \"%s\"", key.c_str()));
            std::string why;
            if (!harness::readUnsigned(v, "\"" + key + "\"", match->dst,
                                       &why)) {
                return fail(why);
            }
        }
    }
    std::string why;
    if (!plan.check(&why))
        return fail(why);
    *out = std::move(plan);
    return true;
}

harness::Json
FaultPlan::toJson() const
{
    using harness::Json;
    Json doc = Json::object();
    doc.set("rate", rate);
    doc.set("seed", seed);
    Json kind_arr = Json::array();
    for (const auto &k : kinds)
        kind_arr.push(k);
    doc.set("kinds", std::move(kind_arr));
    if (!target.empty())
        doc.set("target", target);
    doc.set("stall_ticks", stallTicks);
    doc.set("supply_delay_ticks", supplyDelayTicks);
    doc.set("backoff_base", backoffBase);
    doc.set("backoff_cap", backoffCap);
    doc.set("watchdog_window", watchdogWindow);
    return doc;
}

} // namespace csync
