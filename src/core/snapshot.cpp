#include "core/snapshot.h"

#include <sys/stat.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <variant>
#include <vector>

#include "graph/serializer.h"
#include "ops/op_registry.h"
#include "support/env.h"
#include "support/logging.h"

namespace sod2 {
namespace {

// ---------------------------------------------------------------------
// Hashing. FNV-1a 64 over canonical text: cheap, stable across builds,
// and good enough for a cache-validity check (a collision can only
// cause a REJECTED snapshot to be accepted, and the body validation
// below still has to pass against the live graph).
// ---------------------------------------------------------------------

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

uint64_t
fnv1a(const std::string& s, uint64_t h = kFnvOffset)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= kFnvPrime;
    }
    return h;
}

const char* const kMagic = "sod2snap";
/** 2: the graph hash mixes 8-byte words (mixBytes), so a version-1
 *  file reports STALE by version rather than as a changed model. */
constexpr int kFormatVersion = 2;

// ---------------------------------------------------------------------
// Token spellings.
// ---------------------------------------------------------------------

const char*
symOpTok(SymOp op)
{
    switch (op) {
      case SymOp::kAdd: return "+";
      case SymOp::kSub: return "-";
      case SymOp::kMul: return "*";
      case SymOp::kFloorDiv: return "/";
      case SymOp::kCeilDiv: return "^";
      case SymOp::kMod: return "%";
      case SymOp::kMin: return "min";
      case SymOp::kMax: return "max";
      case SymOp::kConst:
      case SymOp::kSym: break;
    }
    return "?op";
}

const char*
groupKindTok(GroupKind k)
{
    switch (k) {
      case GroupKind::kSingle: return "single";
      case GroupKind::kElementwiseChain: return "chain";
      case GroupKind::kHeavyWithEpilogue: return "heavy";
    }
    return "single";
}

const char*
subgraphClassTok(SubgraphClass c)
{
    switch (c) {
      case SubgraphClass::kAllKnown: return "allknown";
      case SubgraphClass::kMixedConst: return "mixed";
      case SubgraphClass::kNac: return "nac";
    }
    return "nac";
}

const char*
shapeClassTok(ShapeClass c)
{
    switch (c) {
      case ShapeClass::kSkinny: return "skinny";
      case ShapeClass::kRegular: return "regular";
      case ShapeClass::kFat: return "fat";
    }
    return "regular";
}

/** Parse failure inside the body: the file is corrupt, not stale. */
[[noreturn]] void
corrupt(const std::string& why)
{
    SOD2_THROW_CODE(ErrorCode::kInvalidInput) << why;
}

GroupKind
groupKindFromTok(const std::string& t)
{
    if (t == "single")
        return GroupKind::kSingle;
    if (t == "chain")
        return GroupKind::kElementwiseChain;
    if (t == "heavy")
        return GroupKind::kHeavyWithEpilogue;
    corrupt("unknown fusion-group kind '" + t + "'");
}

SubgraphClass
subgraphClassFromTok(const std::string& t)
{
    if (t == "allknown")
        return SubgraphClass::kAllKnown;
    if (t == "mixed")
        return SubgraphClass::kMixedConst;
    if (t == "nac")
        return SubgraphClass::kNac;
    corrupt("unknown subgraph class '" + t + "'");
}

ShapeClass
shapeClassFromTok(const std::string& t)
{
    if (t == "skinny")
        return ShapeClass::kSkinny;
    if (t == "regular")
        return ShapeClass::kRegular;
    if (t == "fat")
        return ShapeClass::kFat;
    corrupt("unknown shape class '" + t + "'");
}

// ---------------------------------------------------------------------
// Symbolic-expression text: prefix notation, whitespace-separated.
// "$name" is a symbol, a bare integer a constant, everything else a
// binary operator followed by its two operands. Reparsing goes through
// the canonicalizing SymExpr factories, and the writer only ever sees
// already-canonical trees, so the round-trip is structurally exact.
// ---------------------------------------------------------------------

void
writeExpr(std::ostream& os, const SymExprPtr& e)
{
    if (e->isConst()) {
        os << e->constValue();
        return;
    }
    if (e->isSymbol()) {
        os << '$' << e->symbolName();
        return;
    }
    os << symOpTok(e->op()) << ' ';
    writeExpr(os, e->lhs());
    os << ' ';
    writeExpr(os, e->rhs());
}

/** Whitespace tokenizer over one line of the snapshot body: a cursor
 *  over its own copy of the line (an istringstream per line took over
 *  half the parse time). */
class Toks
{
  public:
    explicit Toks(std::string line) : line_(std::move(line)) {}

    std::string
    next()
    {
        skipSpace();
        size_t start = pos_;
        while (pos_ < line_.size() && !isSpace(line_[pos_]))
            ++pos_;
        if (pos_ == start)
            corrupt("truncated snapshot line");
        return line_.substr(start, pos_ - start);
    }

    int64_t
    nextInt()
    {
        std::string t = next();
        errno = 0;
        char* end = nullptr;
        long long v = std::strtoll(t.c_str(), &end, 10);
        if (end == t.c_str() || *end != '\0' || errno == ERANGE)
            corrupt("expected an integer, got '" + t + "'");
        return v;
    }

    uint64_t
    nextU64()
    {
        std::string t = next();
        errno = 0;
        char* end = nullptr;
        unsigned long long v = std::strtoull(t.c_str(), &end, 10);
        if (end == t.c_str() || *end != '\0' || errno == ERANGE)
            corrupt("expected an unsigned integer, got '" + t + "'");
        return v;
    }

    void
    expect(const std::string& want)
    {
        std::string t = next();
        if (t != want)
            corrupt("expected '" + want + "', got '" + t + "'");
    }

    bool
    done()
    {
        skipSpace();
        return pos_ == line_.size();
    }

    /** Raw unread remainder of the line (fold tensor payloads). */
    std::string
    rest()
    {
        std::string r = line_.substr(pos_);
        pos_ = line_.size();
        return r;
    }

  private:
    static bool
    isSpace(char c)
    {
        return std::isspace(static_cast<unsigned char>(c)) != 0;
    }

    void
    skipSpace()
    {
        while (pos_ < line_.size() && isSpace(line_[pos_]))
            ++pos_;
    }

    std::string line_;
    size_t pos_ = 0;
};

/** Expression nodes already built while parsing one snapshot. Most
 *  `shape` lines repeat the same subtrees, and rebuilding each through
 *  the canonicalizing factories was most of a load. Children are
 *  memoized before their parent, so a node is keyed on its children's
 *  pointers, which the memo keeps alive. */
struct ExprMemo
{
    std::unordered_map<int64_t, SymExprPtr> constants;
    std::unordered_map<std::string, SymExprPtr> symbols;
    std::map<std::tuple<SymOp, const SymExpr*, const SymExpr*>, SymExprPtr>
        nodes;
};

/** Parses one prefix expression whose FIRST token is @p tok; operand
 *  tokens are consumed from @p t. */
SymExprPtr
parseExprTok(const std::string& tok, Toks& t, ExprMemo& memo)
{
    SymOp op;
    if (tok == "+")
        op = SymOp::kAdd;
    else if (tok == "-")
        op = SymOp::kSub;
    else if (tok == "*")
        op = SymOp::kMul;
    else if (tok == "/")
        op = SymOp::kFloorDiv;
    else if (tok == "^")
        op = SymOp::kCeilDiv;
    else if (tok == "%")
        op = SymOp::kMod;
    else if (tok == "min")
        op = SymOp::kMin;
    else if (tok == "max")
        op = SymOp::kMax;
    else if (tok[0] == '$') {
        if (tok.size() < 2)
            corrupt("empty symbol name");
        auto [it, fresh] = memo.symbols.try_emplace(tok.substr(1));
        if (fresh)
            it->second = SymExpr::symbol(it->first);
        return it->second;
    } else {
        errno = 0;
        char* end = nullptr;
        long long v = std::strtoll(tok.c_str(), &end, 10);
        if (end == tok.c_str() || *end != '\0' || errno == ERANGE)
            corrupt("bad expression token '" + tok + "'");
        auto [it, fresh] = memo.constants.try_emplace(v);
        if (fresh)
            it->second = SymExpr::constant(v);
        return it->second;
    }
    SymExprPtr lhs = parseExprTok(t.next(), t, memo);
    SymExprPtr rhs = parseExprTok(t.next(), t, memo);
    auto [it, fresh] = memo.nodes.try_emplace({op, lhs.get(), rhs.get()});
    if (fresh)
        it->second = SymExpr::binary(op, std::move(lhs), std::move(rhs));
    return it->second;
}

// DimValue cells: "?" undef, "!" nac, else one prefix expression.
void
writeCell(std::ostream& os, const DimValue& d)
{
    if (d.isUndef())
        os << '?';
    else if (d.isNac())
        os << '!';
    else
        writeExpr(os, d.expr());
}

DimValue
parseCell(Toks& t, ExprMemo& memo)
{
    std::string tok = t.next();
    if (tok == "?")
        return DimValue::undef();
    if (tok == "!")
        return DimValue::nac();
    return DimValue::of(parseExprTok(tok, t, memo));
}

// ---------------------------------------------------------------------
// Options fingerprint: canonical text over every option that changes
// the compiled artifact. Runtime-only knobs (cache capacity, guardrail
// defaults, device profile) are deliberately excluded — the artifact
// is identical across them.
// ---------------------------------------------------------------------

std::string
optionsFingerprint(const Sod2Options& o)
{
    std::ostringstream os;
    os << "fusion=" << static_cast<int>(o.fusion)
       << " fold=" << o.enableConstantFolding << " sep=" << o.enableSep
       << " dmp=" << o.enableDmp << " mvc=" << o.enableMvc
       << " allbranches=" << o.executeAllBranches
       << " tune=" << o.tuneKernels
       << " sep.exh=" << o.sep.exhaustiveLimit
       << " sep.states=" << o.sep.maxSearchStates
       << " sep.nominal=" << o.sep.nominalSymbolValue << '\n';
    for (const auto& [name, shape] : o.rdp.inputShapes)
        os << "inshape " << name << " = " << shape.toString() << '\n';
    for (const auto& [name, rank] : o.rdp.inputRanks)
        os << "inrank " << name << " = " << rank << '\n';
    os << "rdp.back=" << o.rdp.enableBackward
       << " rdp.maxit=" << o.rdp.maxIterations << '\n';
    return os.str();
}

std::string
readFile(const std::string& path, bool* missing)
{
    std::ifstream in(path);
    if (!in.good()) {
        *missing = true;
        return std::string();
    }
    *missing = false;
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

}  // namespace

const char*
snapshotStatusName(SnapshotStatus s)
{
    switch (s) {
      case SnapshotStatus::kLoaded: return "loaded";
      case SnapshotStatus::kMissing: return "missing";
      case SnapshotStatus::kStale: return "stale";
      case SnapshotStatus::kCorrupt: return "corrupt";
      case SnapshotStatus::kDisabled: return "disabled";
    }
    return "unknown";
}

namespace {

/** FNV-1a over 8-byte words, then the tail bytes: one multiply per
 *  word keeps hashing the weights cheap beside the rest of a load. A
 *  difference in one word always changes the result (xor, then an odd
 *  multiplier, are bijections). */
void
mixBytes(uint64_t& h, const void* data, size_t n)
{
    const unsigned char* p = static_cast<const unsigned char*>(data);
    size_t i = 0;
    for (; i + sizeof(uint64_t) <= n; i += sizeof(uint64_t)) {
        uint64_t word;
        std::memcpy(&word, p + i, sizeof(word));
        h ^= word;
        h *= kFnvPrime;
    }
    for (; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
}

void
mixInt(uint64_t& h, uint64_t v)
{
    mixBytes(h, &v, sizeof(v));
}

void
mixString(uint64_t& h, const std::string& s)
{
    mixInt(h, s.size());  // length-prefixed: "ab"+"c" != "a"+"bc"
    mixBytes(h, s.data(), s.size());
}

/**
 * Content hash of one graph by direct traversal: structure, names,
 * dtypes, attributes, and constant tensors as RAW BYTES. Equivalent in
 * discriminating power to hashing serializeGraph(g)'s text (ids are
 * dense and insertion-ordered in both), but ~20x faster — the text
 * route formats every weight element through hexfloat, which costs
 * more than the whole engine compile for the scaled-down zoo and would
 * sink the snapshot boot-time win this file exists for.
 */
void
mixGraph(uint64_t& h, const Graph& g)
{
    mixInt(h, static_cast<uint64_t>(g.numValues()));
    mixInt(h, static_cast<uint64_t>(g.numNodes()));
    for (ValueId v = 0; v < static_cast<ValueId>(g.numValues()); ++v) {
        const Value& val = g.value(v);
        mixString(h, val.name);
        mixInt(h, static_cast<uint64_t>(val.dtype));
        mixInt(h, val.isGraphInput ? 1 : 0);
        if (val.isConstant()) {
            const auto& dims = val.constant.shape().dims();
            mixInt(h, dims.size());
            for (int64_t d : dims)
                mixInt(h, static_cast<uint64_t>(d));
            mixBytes(h, val.constant.raw(), val.constant.byteSize());
        }
    }
    for (NodeId n = 0; n < static_cast<NodeId>(g.numNodes()); ++n) {
        const Node& node = g.node(n);
        mixString(h, node.op);
        mixString(h, node.name);
        mixInt(h, node.inputs.size());
        for (ValueId v : node.inputs)
            mixInt(h, static_cast<uint64_t>(v));
        mixInt(h, node.outputs.size());
        for (ValueId v : node.outputs)
            mixInt(h, static_cast<uint64_t>(v));
        mixInt(h, node.attrs.entries().size());
        for (const auto& [key, attr] : node.attrs.entries()) {
            mixString(h, key);
            mixInt(h, attr.index());
            if (const auto* i = std::get_if<int64_t>(&attr)) {
                mixInt(h, static_cast<uint64_t>(*i));
            } else if (const auto* d = std::get_if<double>(&attr)) {
                mixBytes(h, d, sizeof(*d));
            } else if (const auto* s = std::get_if<std::string>(&attr)) {
                mixString(h, *s);
            } else if (const auto* iv =
                           std::get_if<std::vector<int64_t>>(&attr)) {
                mixInt(h, iv->size());
                mixBytes(h, iv->data(), iv->size() * sizeof(int64_t));
            } else if (const auto* dv =
                           std::get_if<std::vector<double>>(&attr)) {
                mixInt(h, dv->size());
                mixBytes(h, dv->data(), dv->size() * sizeof(double));
            } else if (const auto* sub =
                           std::get_if<std::shared_ptr<Graph>>(&attr)) {
                if (*sub)
                    mixGraph(h, **sub);  // If/Loop bodies
                else
                    mixInt(h, 0);
            }
        }
    }
    mixInt(h, g.outputIds().size());
    for (ValueId v : g.outputIds())
        mixInt(h, static_cast<uint64_t>(v));
}

}  // namespace

uint64_t
snapshotGraphHash(const Graph& graph)
{
    uint64_t h = kFnvOffset;
    mixGraph(h, graph);
    return h;
}

uint64_t
snapshotRegistryHash()
{
    uint64_t h = kFnvOffset;
    for (const std::string& op : OpRegistry::instance().allOps())
        h = fnv1a(op + "\n", h);
    return h;
}

uint64_t
snapshotOptionsHash(const Sod2Options& options)
{
    return fnv1a(optionsFingerprint(options));
}

std::string
snapshotPathFor(const std::string& dir, const std::string& model)
{
    std::string name;
    name.reserve(model.size());
    for (char c : model)
        name.push_back(std::isalnum(static_cast<unsigned char>(c)) ||
                               c == '-' || c == '_'
                           ? c
                           : '_');
    if (name.empty())
        name = "model";
    return dir + "/" + name + ".sod2snap";
}

void
saveSnapshot(const Sod2Engine& engine, const std::string& path)
{
    CompiledArtifact a = engine.exportArtifact();
    const Graph& g = *engine.graph();

    std::ostringstream os;
    os << kMagic << ' ' << kFormatVersion << '\n';
    os << "hash " << snapshotGraphHash(g) << ' ' << snapshotRegistryHash()
       << ' ' << snapshotOptionsHash(engine.options()) << '\n';

    // RDP result: one line per abstract shape, then one per abstract
    // value, in ValueId order.
    os << "rdp " << a.rdp->iterations() << ' ' << a.rdp->shapes().size()
       << ' ' << a.rdp->values().size() << '\n';
    for (const ShapeInfo& s : a.rdp->shapes()) {
        if (s.isUndef()) {
            os << "shape undef\n";
        } else if (s.isNac()) {
            os << "shape nac\n";
        } else {
            os << "shape ranked " << s.rank();
            for (const DimValue& d : s.dims()) {
                os << ' ';
                writeCell(os, d);
            }
            os << '\n';
        }
    }
    for (const ValueInfo& v : a.rdp->values()) {
        if (v.isUndef()) {
            os << "value undef\n";
        } else if (v.isUnknown()) {
            os << "value unknown\n";
        } else {
            os << "value elems " << v.elements().size();
            for (const DimValue& d : v.elements()) {
                os << ' ';
                writeCell(os, d);
            }
            os << '\n';
        }
    }

    // Folded constants: bit-exact tensor payloads (hexfloat).
    os << "folded " << a.folded.size() << '\n';
    for (const auto& [id, tensor] : a.folded)
        os << "fold " << id << ' ' << serializeTensorText(tensor)
           << '\n';

    // Fusion plan.
    os << "fusion " << a.fusion.groups.size() << '\n';
    for (const FusionGroup& grp : a.fusion.groups) {
        os << "group " << groupKindTok(grp.kind) << ' '
           << grp.nodes.size() << " :";
        for (NodeId n : grp.nodes)
            os << ' ' << n;
        os << '\n';
    }
    os << "materialized " << a.fusion.materialized.size() << " :";
    for (bool m : a.fusion.materialized)
        os << ' ' << (m ? 1 : 0);
    os << '\n';

    // Execution plan.
    os << "order " << a.plan.order.size() << " :";
    for (int gi : a.plan.order)
        os << ' ' << gi;
    os << '\n';
    os << "subgraphs " << a.plan.subgraphs.size() << '\n';
    for (const PlannedSubgraph& sg : a.plan.subgraphs) {
        os << "subgraph " << subgraphClassTok(sg.cls) << ' '
           << sg.versionsNeeded << ' ' << sg.groupOrder.size() << " :";
        for (int gi : sg.groupOrder)
            os << ' ' << gi;
        os << '\n';
    }

    // Tuned kernel versions.
    os << "gemms " << a.versions.gemm.size() << '\n';
    for (const auto& [cls, v] : a.versions.gemm)
        os << "gemm " << shapeClassTok(cls) << ' ' << v.tileM << ' '
           << v.tileN << ' ' << v.tileK << ' ' << (v.parallel ? 1 : 0)
           << '\n';
    os << "convs " << a.versions.conv.size() << '\n';
    for (const auto& [cls, v] : a.versions.conv)
        os << "conv " << shapeClassTok(cls) << ' ' << v.ocBlock << ' '
           << (v.parallel ? 1 : 0) << '\n';

    // Hot plan-cache signatures.
    os << "warm " << a.warm.size() << '\n';
    for (const auto& [hash, values] : a.warm) {
        os << "sig " << hash << ' ' << values.size() << " :";
        for (int64_t v : values)
            os << ' ' << v;
        os << '\n';
    }
    os << "end\n";

    // Atomic publish: a concurrent loadSnapshot sees either the old
    // complete file or the new complete file, never a torn write.
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out.good())
            SOD2_THROW_CODE(ErrorCode::kInternal)
                << "cannot write snapshot temp file '" << tmp << "'";
        out << os.str();
        out.flush();
        if (!out.good())
            SOD2_THROW_CODE(ErrorCode::kInternal)
                << "short write to snapshot temp file '" << tmp << "'";
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        SOD2_THROW_CODE(ErrorCode::kInternal)
            << "cannot publish snapshot '" << path
            << "': " << std::strerror(errno);
    }
}

namespace {

/** Body parser; throws (via corrupt()) on any inconsistency. */
CompiledArtifact
parseBody(std::istream& in, const Graph& graph)
{
    CompiledArtifact a;
    std::string line;
    auto nextLine = [&]() -> Toks {
        if (!std::getline(in, line))
            corrupt("unexpected end of snapshot");
        return Toks(line);
    };

    const int num_values = graph.numValues();
    const int num_nodes = graph.numNodes();

    // RDP section.
    {
        ExprMemo memo;
        Toks t = nextLine();
        t.expect("rdp");
        int iterations = static_cast<int>(t.nextInt());
        int64_t nshapes = t.nextInt();
        int64_t nvalues = t.nextInt();
        if (nshapes != num_values || nvalues != num_values)
            corrupt("RDP table size does not match the graph");
        std::vector<ShapeInfo> shapes;
        shapes.reserve(nshapes);
        for (int64_t i = 0; i < nshapes; ++i) {
            Toks st = nextLine();
            st.expect("shape");
            std::string kind = st.next();
            if (kind == "undef") {
                shapes.push_back(ShapeInfo::undef());
            } else if (kind == "nac") {
                shapes.push_back(ShapeInfo::nac());
            } else if (kind == "ranked") {
                int64_t rank = st.nextInt();
                if (rank < 0 || rank > 64)
                    corrupt("implausible shape rank");
                std::vector<DimValue> dims;
                dims.reserve(rank);
                for (int64_t d = 0; d < rank; ++d)
                    dims.push_back(parseCell(st, memo));
                shapes.push_back(ShapeInfo::ranked(std::move(dims)));
            } else {
                corrupt("unknown shape kind '" + kind + "'");
            }
        }
        std::vector<ValueInfo> values;
        values.reserve(nvalues);
        for (int64_t i = 0; i < nvalues; ++i) {
            Toks vt = nextLine();
            vt.expect("value");
            std::string kind = vt.next();
            if (kind == "undef") {
                values.push_back(ValueInfo::undef());
            } else if (kind == "unknown") {
                values.push_back(ValueInfo::unknown());
            } else if (kind == "elems") {
                int64_t n = vt.nextInt();
                if (n < 0 || n > (1 << 20))
                    corrupt("implausible abstract element count");
                std::vector<DimValue> elems;
                elems.reserve(n);
                for (int64_t e = 0; e < n; ++e)
                    elems.push_back(parseCell(vt, memo));
                values.push_back(ValueInfo::elems(std::move(elems)));
            } else {
                corrupt("unknown value kind '" + kind + "'");
            }
        }
        a.rdp = std::make_unique<RdpResult>(
            std::move(shapes), std::move(values), iterations);
    }

    // Folded constants.
    {
        Toks t = nextLine();
        t.expect("folded");
        int64_t n = t.nextInt();
        for (int64_t i = 0; i < n; ++i) {
            Toks ft = nextLine();
            ft.expect("fold");
            int64_t id = ft.nextInt();
            if (id < 0 || id >= num_values)
                corrupt("folded value id out of range");
            try {
                a.folded.emplace(static_cast<ValueId>(id),
                                 parseTensorText(ft.rest()));
            } catch (const Error& e) {
                corrupt(std::string("bad folded tensor payload: ") +
                        e.what());
            }
        }
    }

    // Fusion plan.
    {
        Toks t = nextLine();
        t.expect("fusion");
        int64_t ngroups = t.nextInt();
        if (ngroups < 0 || ngroups > num_nodes)
            corrupt("fusion group count out of range");
        a.fusion.groups.reserve(ngroups);
        for (int64_t i = 0; i < ngroups; ++i) {
            Toks gt = nextLine();
            gt.expect("group");
            FusionGroup grp;
            grp.kind = groupKindFromTok(gt.next());
            int64_t nn = gt.nextInt();
            gt.expect(":");
            if (nn <= 0 || nn > num_nodes)
                corrupt("fusion group node count out of range");
            for (int64_t j = 0; j < nn; ++j) {
                int64_t node = gt.nextInt();
                if (node < 0 || node >= num_nodes)
                    corrupt("fusion group node id out of range");
                grp.nodes.push_back(static_cast<NodeId>(node));
            }
            a.fusion.groups.push_back(std::move(grp));
        }
        Toks mt = nextLine();
        mt.expect("materialized");
        int64_t nm = mt.nextInt();
        mt.expect(":");
        if (nm != num_values)
            corrupt("materialized table size does not match the graph");
        a.fusion.materialized.reserve(nm);
        for (int64_t i = 0; i < nm; ++i)
            a.fusion.materialized.push_back(mt.nextInt() != 0);
    }

    // Execution plan. The order must be a permutation of the groups —
    // adopting a truncated or duplicated order would skip or re-run
    // kernels, so this is checked, not trusted.
    {
        const int ngroups = static_cast<int>(a.fusion.groups.size());
        Toks t = nextLine();
        t.expect("order");
        int64_t n = t.nextInt();
        t.expect(":");
        if (n != ngroups)
            corrupt("execution order length != group count");
        std::vector<bool> seen(ngroups, false);
        for (int64_t i = 0; i < n; ++i) {
            int64_t gi = t.nextInt();
            if (gi < 0 || gi >= ngroups || seen[gi])
                corrupt("execution order is not a group permutation");
            seen[gi] = true;
            a.plan.order.push_back(static_cast<int>(gi));
        }
        Toks st = nextLine();
        st.expect("subgraphs");
        int64_t nsg = st.nextInt();
        if (nsg < 0 || nsg > ngroups + 1)
            corrupt("subgraph count out of range");
        for (int64_t i = 0; i < nsg; ++i) {
            Toks sgt = nextLine();
            sgt.expect("subgraph");
            PlannedSubgraph sg;
            sg.cls = subgraphClassFromTok(sgt.next());
            sg.versionsNeeded = static_cast<int>(sgt.nextInt());
            int64_t ng = sgt.nextInt();
            sgt.expect(":");
            if (ng < 0 || ng > ngroups)
                corrupt("subgraph group count out of range");
            for (int64_t j = 0; j < ng; ++j) {
                int64_t gi = sgt.nextInt();
                if (gi < 0 || gi >= ngroups)
                    corrupt("subgraph group id out of range");
                sg.groupOrder.push_back(static_cast<int>(gi));
            }
            a.plan.subgraphs.push_back(std::move(sg));
        }
    }

    // Tuned kernel versions.
    {
        Toks t = nextLine();
        t.expect("gemms");
        int64_t n = t.nextInt();
        for (int64_t i = 0; i < n; ++i) {
            Toks gt = nextLine();
            gt.expect("gemm");
            ShapeClass cls = shapeClassFromTok(gt.next());
            GemmVariant v;
            v.tileM = gt.nextInt();
            v.tileN = gt.nextInt();
            v.tileK = gt.nextInt();
            v.parallel = gt.nextInt() != 0;
            a.versions.gemm[cls] = v;
        }
        Toks ct = nextLine();
        ct.expect("convs");
        int64_t nc = ct.nextInt();
        for (int64_t i = 0; i < nc; ++i) {
            Toks vt = nextLine();
            vt.expect("conv");
            ShapeClass cls = shapeClassFromTok(vt.next());
            ConvVariant v;
            v.ocBlock = vt.nextInt();
            v.parallel = vt.nextInt() != 0;
            a.versions.conv[cls] = v;
        }
    }

    // Warm plan-cache signatures.
    {
        Toks t = nextLine();
        t.expect("warm");
        int64_t n = t.nextInt();
        if (n < 0 || n > 4096)
            corrupt("warm signature count out of range");
        for (int64_t i = 0; i < n; ++i) {
            Toks wt = nextLine();
            wt.expect("sig");
            uint64_t hash = wt.nextU64();
            int64_t nv = wt.nextInt();
            wt.expect(":");
            if (nv < 0 || nv > 4096)
                corrupt("warm signature arity out of range");
            std::vector<int64_t> values;
            values.reserve(nv);
            for (int64_t j = 0; j < nv; ++j)
                values.push_back(wt.nextInt());
            a.warm.emplace_back(hash, std::move(values));
        }
    }

    Toks t = nextLine();
    t.expect("end");
    return a;
}

}  // namespace

std::unique_ptr<Sod2Engine>
loadSnapshot(const Graph* graph, const Sod2Options& options,
             const std::string& path, SnapshotStatus* status,
             std::string* detail)
{
    auto fail = [&](SnapshotStatus s,
                    const std::string& why) -> std::unique_ptr<Sod2Engine> {
        if (status)
            *status = s;
        if (detail)
            *detail = why;
        return nullptr;
    };

    SOD2_CHECK(graph != nullptr);
    bool missing = false;
    std::string text = readFile(path, &missing);
    if (missing)
        return fail(SnapshotStatus::kMissing, "no file at '" + path + "'");

    std::istringstream in(text);
    std::string line;

    // Header: magic + format version, then the three validity hashes.
    // A version or hash mismatch is STALE (the world moved on), a
    // malformed header is CORRUPT.
    try {
        if (!std::getline(in, line))
            corrupt("empty snapshot file");
        {
            Toks t(line);
            if (t.next() != kMagic)
                corrupt("bad magic (not a sod2 snapshot)");
            int64_t version = t.nextInt();
            if (version != kFormatVersion)
                return fail(SnapshotStatus::kStale,
                            "format version " + std::to_string(version) +
                                ", this build writes " +
                                std::to_string(kFormatVersion));
        }
        if (!std::getline(in, line))
            corrupt("missing hash line");
        {
            Toks t(line);
            t.expect("hash");
            uint64_t gh = t.nextU64();
            uint64_t rh = t.nextU64();
            uint64_t oh = t.nextU64();
            if (gh != snapshotGraphHash(*graph))
                return fail(SnapshotStatus::kStale,
                            "graph hash mismatch (the model changed)");
            if (rh != snapshotRegistryHash())
                return fail(SnapshotStatus::kStale,
                            "operator registry hash mismatch");
            if (oh != snapshotOptionsHash(options))
                return fail(SnapshotStatus::kStale,
                            "compile options fingerprint mismatch");
        }

        CompiledArtifact artifact = parseBody(in, *graph);
        auto engine = std::make_unique<Sod2Engine>(graph, options,
                                                   std::move(artifact));
        if (status)
            *status = SnapshotStatus::kLoaded;
        if (detail)
            detail->clear();
        return engine;
    } catch (const Error& e) {
        return fail(SnapshotStatus::kCorrupt, e.what());
    }
}

std::unique_ptr<Sod2Engine>
loadOrCompile(const Graph* graph, const Sod2Options& options,
              const std::string& path, SnapshotStatus* status)
{
    SnapshotStatus st = SnapshotStatus::kMissing;
    std::string detail;
    if (auto engine = loadSnapshot(graph, options, path, &st, &detail)) {
        if (status)
            *status = st;
        return engine;
    }
    if (st != SnapshotStatus::kMissing)
        SOD2_LOG(kWarn) << "snapshot '" << path << "' is "
                        << snapshotStatusName(st) << " (" << detail
                        << "); falling back to a clean compile";
    auto engine = std::make_unique<Sod2Engine>(graph, options);
    try {
        saveSnapshot(*engine, path);
    } catch (const Error& e) {
        SOD2_LOG(kWarn) << "could not write snapshot '" << path
                        << "': " << e.what();
    }
    if (status)
        *status = st;
    return engine;
}

std::unique_ptr<Sod2Engine>
loadOrCompileFromEnv(const Graph* graph, const Sod2Options& options,
                     const std::string& model, SnapshotStatus* status)
{
    if (!env::snapshotEnabled()) {
        if (status)
            *status = SnapshotStatus::kDisabled;
        return std::make_unique<Sod2Engine>(graph, options);
    }
    std::string dir = env::snapshotDir();
    if (dir.empty())
        dir = "sod2_snapshots";
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
        SOD2_LOG(kWarn) << "cannot create snapshot directory '" << dir
                        << "': " << std::strerror(errno);
    return loadOrCompile(graph, options, snapshotPathFor(dir, model),
                         status);
}

}  // namespace sod2
