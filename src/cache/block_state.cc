#include "cache/block_state.hh"

namespace csync
{

namespace
{

// The one flag -> label table behind stateName and stateAbbrev, in print
// order.  A null abbrev drops the flag from the abbreviated form (the
// WroteOnce hint never fit the compact dumps).  Dirty/Clean is rendered
// specially below: the long form suppresses ",Clean" on locked blocks.
struct SuffixLabel
{
    State bit;
    const char *word;
    const char *abbrev;
};

constexpr SuffixLabel kSuffixLabels[] = {
    {BitWaiter, ",Waiter", ".W"},
    {BitShared, ",Shared", ".sh"},
    {BitWroteOnce, ",WroteOnce", nullptr},
};

const char *
baseLabel(State s, bool abbrev)
{
    if (isLocked(s))
        return abbrev ? "L" : "Lock";
    if (canWrite(s))
        return abbrev ? "W" : "Write";
    return abbrev ? "R" : "Read";
}

std::string
renderState(State s, bool abbrev)
{
    if (!isValid(s))
        return abbrev ? "I" : "Invalid";
    std::string out = baseLabel(s, abbrev);
    if (isSource(s))
        out += abbrev ? ".S" : ",Source";
    if (abbrev)
        out += isDirty(s) ? ".D" : ".C";
    else if (!isLocked(s))
        out += isDirty(s) ? ",Dirty" : ",Clean";
    else if (isDirty(s))
        out += ",Dirty";
    for (const auto &l : kSuffixLabels) {
        if (!(s & l.bit))
            continue;
        if (const char *label = abbrev ? l.abbrev : l.word)
            out += label;
    }
    return out;
}

} // namespace

const std::string &
stateName(State s)
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (unsigned i = 0; i <= 0xff; ++i)
            v.push_back(renderState(State(i), false));
        return v;
    }();
    return names[s];
}

std::string
stateAbbrev(State s)
{
    return renderState(s, true);
}

const std::vector<State> &
table1StateRows()
{
    static const std::vector<State> rows = {
        Inv,
        Rd,
        RdSrcCln,
        RdSrcDty,
        WrCln,          // non-source clean write (Goodman's Reserved)
        WrSrcCln,
        WrSrcDty,
        LkSrcDty,
        LkSrcDtyWt,
    };
    return rows;
}

} // namespace csync
