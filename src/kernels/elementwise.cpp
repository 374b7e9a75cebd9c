#include "kernels/elementwise.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "support/logging.h"
#include "support/threadpool.h"
#include "tensor/broadcast.h"

namespace sod2 {

namespace {

/** One row of the elementwise op table. */
struct ElementwiseOp
{
    const char* name;
    FusedOpCode op;
    int arity;
    bool comparison;  ///< bool-valued (comparison / logical)
};

constexpr ElementwiseOp kElementwiseOps[] = {
    {"Relu", FusedOpCode::kRelu, 1, false},
    {"LeakyRelu", FusedOpCode::kLeakyRelu, 1, false},
    {"Sigmoid", FusedOpCode::kSigmoid, 1, false},
    {"Tanh", FusedOpCode::kTanh, 1, false},
    {"Erf", FusedOpCode::kErf, 1, false},
    {"Exp", FusedOpCode::kExp, 1, false},
    {"Log", FusedOpCode::kLog, 1, false},
    {"Sqrt", FusedOpCode::kSqrt, 1, false},
    {"Neg", FusedOpCode::kNeg, 1, false},
    {"Abs", FusedOpCode::kAbs, 1, false},
    {"Round", FusedOpCode::kRound, 1, false},
    {"Clip", FusedOpCode::kClip, 1, false},
    {"Identity", FusedOpCode::kIdentity, 1, false},
    {"Softplus", FusedOpCode::kSoftplus, 1, false},
    {"Not", FusedOpCode::kNot, 1, false},
    {"Add", FusedOpCode::kAdd, 2, false},
    {"Sub", FusedOpCode::kSub, 2, false},
    {"Mul", FusedOpCode::kMul, 2, false},
    {"Div", FusedOpCode::kDiv, 2, false},
    {"Pow", FusedOpCode::kPow, 2, false},
    {"Min", FusedOpCode::kMin, 2, false},
    {"Max", FusedOpCode::kMax, 2, false},
    {"Mod", FusedOpCode::kMod, 2, false},
    {"Equal", FusedOpCode::kEqual, 2, true},
    {"Less", FusedOpCode::kLess, 2, true},
    {"Greater", FusedOpCode::kGreater, 2, true},
    {"And", FusedOpCode::kAnd, 2, true},
    {"Or", FusedOpCode::kOr, 2, true},
};

const ElementwiseOp*
findElementwiseOp(const std::string& name)
{
    static const std::unordered_map<std::string, const ElementwiseOp*>
        kByName = [] {
            std::unordered_map<std::string, const ElementwiseOp*> m;
            for (const ElementwiseOp& e : kElementwiseOps)
                m.emplace(e.name, &e);
            return m;
        }();
    auto it = kByName.find(name);
    return it == kByName.end() ? nullptr : it->second;
}

}  // namespace

FusedInstr
elementwiseInstr(const std::string& name, const AttrMap& attrs)
{
    const ElementwiseOp* e = findElementwiseOp(name);
    SOD2_CHECK(e != nullptr) << "no elementwise op '" << name << "'";
    FusedInstr ins;
    ins.op = e->op;
    bool clip = ins.op == FusedOpCode::kClip;
    ins.p0 = static_cast<float>(
        attrs.getFloat(clip ? "min" : "alpha", clip ? -3.4e38 : 0.01));
    ins.p1 = static_cast<float>(attrs.getFloat("max", 3.4e38));
    return ins;
}

bool
isUnaryElementwise(const std::string& name)
{
    const ElementwiseOp* e = findElementwiseOp(name);
    return e != nullptr && e->arity == 1;
}

bool
isBinaryElementwise(const std::string& name)
{
    const ElementwiseOp* e = findElementwiseOp(name);
    return e != nullptr && e->arity == 2;
}

bool
isComparison(const std::string& name)
{
    const ElementwiseOp* e = findElementwiseOp(name);
    return e != nullptr && e->comparison;
}

void
ewUnary(const std::string& name, const Tensor& in, Tensor* out,
        const AttrMap& attrs)
{
    SOD2_CHECK(in.shape() == out->shape());
    int64_t n = in.numElements();
    if (in.dtype() == DType::kFloat32) {
        FusedInstr ins = elementwiseInstr(name, attrs);
        const float* src = in.data<float>();
        float* dst = out->data<float>();
        parallelFor(
            n,
            [&](int64_t b, int64_t e) {
                applyFusedOpcodeBlock(ins, src + b, false, src + b, false,
                                      dst + b, e - b);
            },
            1 << 14);
        return;
    }
    if (name == "Identity") {
        std::memcpy(out->raw(), in.raw(), in.byteSize());
        return;
    }
    if (in.dtype() == DType::kInt64) {
        const int64_t* src = in.data<int64_t>();
        int64_t* dst = out->data<int64_t>();
        for (int64_t i = 0; i < n; ++i) {
            if (name == "Neg")
                dst[i] = -src[i];
            else if (name == "Abs")
                dst[i] = std::abs(src[i]);
            else if (name == "Relu")
                dst[i] = std::max<int64_t>(0, src[i]);
            else
                SOD2_THROW << "unary op '" << name << "' unsupported on i64";
        }
        return;
    }
    SOD2_THROW << "unary op '" << name << "' on dtype "
               << dtypeName(in.dtype());
}

namespace {

template <typename T, typename OutT, typename Fn>
void
broadcastBinaryLoop(const Tensor& a, const Tensor& b, Tensor* out, Fn fn)
{
    const Shape& os = out->shape();
    auto out_strides = os.strides();
    auto as = broadcastStrides(a.shape(), os);
    auto bs = broadcastStrides(b.shape(), os);
    const T* pa = a.data<T>();
    const T* pb = b.data<T>();
    OutT* po = out->data<OutT>();
    int64_t n = os.numElements();

    // Fast path: identical shapes (no index translation needed).
    if (a.shape() == os && b.shape() == os) {
        parallelFor(
            n,
            [&](int64_t lo, int64_t hi) {
                for (int64_t i = lo; i < hi; ++i)
                    po[i] = fn(pa[i], pb[i]);
            },
            1 << 14);
        return;
    }
    parallelFor(
        n,
        [&](int64_t lo, int64_t hi) {
            for (int64_t i = lo; i < hi; ++i) {
                int64_t ia = broadcastIndex(i, out_strides, as);
                int64_t ib = broadcastIndex(i, out_strides, bs);
                po[i] = fn(pa[ia], pb[ib]);
            }
        },
        1 << 12);
}

/**
 * f32 ewBinary through the op table, kFusedBlock elements at a time. An
 * operand is read directly at the flat index when it covers the whole
 * output, as a scalar when it has one element, and gathered through
 * its broadcast strides otherwise. @p to_bool writes op != 0 as bool.
 */
void
ewBinaryF32(const FusedInstr& ins, const Tensor& a, const Tensor& b,
            bool to_bool, Tensor* out)
{
    const Shape& os = out->shape();
    int64_t n = os.numElements();
    auto out_strides = os.strides();
    struct Operand
    {
        const float* data;
        std::vector<int64_t> strides;
        bool direct, scalar;
    };
    auto operand = [&](const Tensor& t) {
        return Operand{t.data<float>(), broadcastStrides(t.shape(), os),
                       t.numElements() == n, t.numElements() == 1};
    };
    Operand oa = operand(a), ob = operand(b);
    bool gathers = !(oa.direct || oa.scalar) || !(ob.direct || ob.scalar);
    float* po = to_bool ? nullptr : out->data<float>();
    bool* pbool = to_bool ? out->data<bool>() : nullptr;
    parallelFor(
        n,
        [&](int64_t lo, int64_t hi) {
            float ta[kFusedBlock], tb[kFusedBlock], tr[kFusedBlock];
            auto block = [&](const Operand& o, int64_t i0, int64_t len,
                             float* tmp) {
                if (o.direct)
                    return o.data + i0;
                if (o.scalar)
                    return o.data;
                for (int64_t i = 0; i < len; ++i)
                    tmp[i] = o.data[broadcastIndex(i0 + i, out_strides,
                                                   o.strides)];
                return static_cast<const float*>(tmp);
            };
            for (int64_t i0 = lo; i0 < hi; i0 += kFusedBlock) {
                int64_t len = std::min(kFusedBlock, hi - i0);
                const float* xa = block(oa, i0, len, ta);
                const float* xb = block(ob, i0, len, tb);
                float* r = to_bool ? tr : po + i0;
                applyFusedOpcodeBlock(ins, xa, oa.scalar && !oa.direct, xb,
                                      ob.scalar && !ob.direct, r, len);
                if (to_bool)
                    for (int64_t i = 0; i < len; ++i)
                        pbool[i0 + i] = tr[i] != 0.0f;
            }
        },
        gathers ? 1 << 12 : 1 << 14);
}

int64_t
applyBinaryScalarI64(const std::string& name, int64_t a, int64_t b)
{
    if (name == "Add")
        return a + b;
    if (name == "Sub")
        return a - b;
    if (name == "Mul")
        return a * b;
    if (name == "Div") {
        SOD2_CHECK_NE(b, 0);
        int64_t q = a / b;
        if ((a % b != 0) && ((a < 0) != (b < 0)))
            --q;
        return q;
    }
    if (name == "Min")
        return std::min(a, b);
    if (name == "Max")
        return std::max(a, b);
    if (name == "Mod") {
        SOD2_CHECK_NE(b, 0);
        int64_t m = a % b;
        if (m != 0 && ((a < 0) != (b < 0)))
            m += b;
        return m;
    }
    if (name == "Equal")
        return a == b;
    if (name == "Less")
        return a < b;
    if (name == "Greater")
        return a > b;
    SOD2_THROW << "binary op '" << name << "' unsupported on i64";
}

}  // namespace

void
ewBinary(const std::string& name, const Tensor& a, const Tensor& b,
         Tensor* out)
{
    if (a.dtype() == DType::kFloat32) {
        ewBinaryF32(elementwiseInstr(name, AttrMap{}), a, b,
                    isComparison(name) && out->dtype() == DType::kBool,
                    out);
        return;
    }
    if (a.dtype() == DType::kInt64) {
        if (isComparison(name) && out->dtype() == DType::kBool) {
            broadcastBinaryLoop<int64_t, bool>(
                a, b, out, [&](int64_t x, int64_t y) {
                    return applyBinaryScalarI64(name, x, y) != 0;
                });
        } else {
            broadcastBinaryLoop<int64_t, int64_t>(
                a, b, out, [&](int64_t x, int64_t y) {
                    return applyBinaryScalarI64(name, x, y);
                });
        }
        return;
    }
    if (a.dtype() == DType::kBool) {
        broadcastBinaryLoop<bool, bool>(a, b, out, [&](bool x, bool y) {
            if (name == "And")
                return x && y;
            if (name == "Or")
                return x || y;
            if (name == "Equal")
                return x == y;
            SOD2_THROW << "binary op '" << name << "' unsupported on bool";
        });
        return;
    }
    SOD2_THROW << "binary op '" << name << "' on dtype "
               << dtypeName(a.dtype());
}

void
ewWhere(const Tensor& cond, const Tensor& a, const Tensor& b, Tensor* out)
{
    SOD2_CHECK(cond.dtype() == DType::kBool);
    const Shape& os = out->shape();
    auto out_strides = os.strides();
    auto cs = broadcastStrides(cond.shape(), os);
    auto as = broadcastStrides(a.shape(), os);
    auto bs = broadcastStrides(b.shape(), os);
    const bool* pc = cond.data<bool>();
    const float* pa = a.data<float>();
    const float* pb = b.data<float>();
    float* po = out->data<float>();
    int64_t n = os.numElements();
    for (int64_t i = 0; i < n; ++i) {
        bool c = pc[broadcastIndex(i, out_strides, cs)];
        po[i] = c ? pa[broadcastIndex(i, out_strides, as)]
                  : pb[broadcastIndex(i, out_strides, bs)];
    }
}

void
castTo(const Tensor& in, Tensor* out)
{
    SOD2_CHECK(in.shape() == out->shape());
    int64_t n = in.numElements();
    auto convert = [&](auto read, auto write) {
        for (int64_t i = 0; i < n; ++i)
            write(i, read(i));
    };
    (void)convert;

    auto readAsDouble = [&](int64_t i) -> double {
        switch (in.dtype()) {
          case DType::kFloat32: return in.data<float>()[i];
          case DType::kInt64: return static_cast<double>(
              in.data<int64_t>()[i]);
          case DType::kInt32: return in.data<int32_t>()[i];
          case DType::kBool: return in.data<bool>()[i] ? 1.0 : 0.0;
        }
        return 0.0;
    };
    switch (out->dtype()) {
      case DType::kFloat32: {
        float* p = out->data<float>();
        for (int64_t i = 0; i < n; ++i)
            p[i] = static_cast<float>(readAsDouble(i));
        break;
      }
      case DType::kInt64: {
        int64_t* p = out->data<int64_t>();
        for (int64_t i = 0; i < n; ++i)
            p[i] = static_cast<int64_t>(readAsDouble(i));
        break;
      }
      case DType::kInt32: {
        int32_t* p = out->data<int32_t>();
        for (int64_t i = 0; i < n; ++i)
            p[i] = static_cast<int32_t>(readAsDouble(i));
        break;
      }
      case DType::kBool: {
        bool* p = out->data<bool>();
        for (int64_t i = 0; i < n; ++i)
            p[i] = readAsDouble(i) != 0.0;
        break;
      }
    }
}

}  // namespace sod2
