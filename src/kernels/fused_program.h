#ifndef SOD2_KERNELS_FUSED_PROGRAM_H_
#define SOD2_KERNELS_FUSED_PROGRAM_H_

/**
 * @file
 * The register program fused groups compile to, shared between the
 * fusion layer (which builds programs), the heavy kernels (which run
 * them as epilogues) and the elementwise kernels (which run one-op
 * programs). It is also the repository's one elementwise op table:
 * visitFusedOp names every op's scalar function once, and both the
 * per-element evaluator and the block evaluator call it, so the two
 * cannot disagree. The one exception is the block evaluator's Exp,
 * Sigmoid and Softplus, which run the vector expf (kernels/vector_exp.h)
 * when it is enabled; it returns std::exp's bits.
 *
 * The block evaluator runs each instruction over a contiguous block of
 * elements (one conv output row, one GEMM row block, one elementwise
 * chunk), so the opcode switch costs once per block instead of once
 * per element. Each element still sees the same float operations in
 * the same order, so block and per-element results are bit-identical.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "kernels/vector_exp.h"

namespace sod2 {

/** Scalar opcodes of the elementwise op table. Comparisons and logical
 *  ops produce 1.0f / 0.0f. */
enum class FusedOpCode : uint8_t {
    kAdd, kSub, kMul, kDiv, kPow, kMin, kMax,
    kRelu, kLeakyRelu, kSigmoid, kTanh, kErf, kExp, kLog, kSqrt,
    kNeg, kAbs, kRound, kClip, kIdentity, kSoftplus,
    kNot, kMod, kEqual, kLess, kGreater, kAnd, kOr,
};

/** One instruction: dst register implicit (instruction index). */
struct FusedInstr
{
    FusedOpCode op = FusedOpCode::kIdentity;
    /** Operand source: >=0 register id; <0 external input ~(idx). */
    int src0 = 0;
    int src1 = 0;
    bool src1Used = false;
    bool src0Scalar = false;  ///< src0 replaced by imm0
    bool src1Scalar = false;  ///< src1 replaced by imm1
    float imm0 = 0.0f;
    float imm1 = 0.0f;
    float p0 = 0.0f;  ///< op parameter (LeakyRelu alpha / Clip lo)
    float p1 = 0.0f;  ///< op parameter (Clip hi)
};

inline constexpr int kMaxFusedRegisters = 64;
/** Elements per block of evalFusedBlock. Registers live on the stack,
 *  kMaxFusedRegisters x kFusedBlock floats at most. */
inline constexpr int64_t kFusedBlock = 128;

/**
 * Calls @p visit with the scalar function float(float a, float b) of
 * @p ins's opcode (unary ops ignore b). The only place an op's scalar
 * arithmetic is written down; the vector expf's block functions
 * (kernels/vector_exp.h) repeat Exp, Sigmoid and Softplus lane by lane,
 * and kernels_test holds them to these bit for bit.
 */
template <typename Visit>
inline void
visitFusedOp(const FusedInstr& ins, Visit&& visit)
{
    switch (ins.op) {
      case FusedOpCode::kAdd:
        return visit([](float a, float b) { return a + b; });
      case FusedOpCode::kSub:
        return visit([](float a, float b) { return a - b; });
      case FusedOpCode::kMul:
        return visit([](float a, float b) { return a * b; });
      case FusedOpCode::kDiv:
        return visit([](float a, float b) { return a / b; });
      case FusedOpCode::kPow:
        return visit([](float a, float b) { return std::pow(a, b); });
      case FusedOpCode::kMin:
        return visit([](float a, float b) { return std::min(a, b); });
      case FusedOpCode::kMax:
        return visit([](float a, float b) { return std::max(a, b); });
      case FusedOpCode::kRelu:
        return visit([](float a, float) { return a > 0.0f ? a : 0.0f; });
      case FusedOpCode::kLeakyRelu: {
        float alpha = ins.p0;
        return visit([alpha](float a, float) {
            return a > 0.0f ? a : alpha * a;
        });
      }
      case FusedOpCode::kSigmoid:
        return visit([](float a, float) {
            return 1.0f / (1.0f + std::exp(-a));
        });
      case FusedOpCode::kTanh:
        return visit([](float a, float) { return std::tanh(a); });
      case FusedOpCode::kErf:
        return visit([](float a, float) { return std::erf(a); });
      case FusedOpCode::kExp:
        return visit([](float a, float) { return std::exp(a); });
      case FusedOpCode::kLog:
        return visit([](float a, float) { return std::log(a); });
      case FusedOpCode::kSqrt:
        return visit([](float a, float) { return std::sqrt(a); });
      case FusedOpCode::kNeg:
        return visit([](float a, float) { return -a; });
      case FusedOpCode::kAbs:
        return visit([](float a, float) { return std::fabs(a); });
      case FusedOpCode::kRound:
        return visit([](float a, float) { return std::nearbyint(a); });
      case FusedOpCode::kClip: {
        float lo = ins.p0, hi = ins.p1;
        return visit([lo, hi](float a, float) {
            return std::clamp(a, lo, hi);
        });
      }
      case FusedOpCode::kIdentity:
        return visit([](float a, float) { return a; });
      case FusedOpCode::kSoftplus:
        return visit([](float a, float) {
            return std::log1p(std::exp(a));
        });
      case FusedOpCode::kNot:
        return visit([](float a, float) { return a == 0.0f ? 1.0f : 0.0f; });
      case FusedOpCode::kMod:
        return visit([](float a, float b) { return std::fmod(a, b); });
      case FusedOpCode::kEqual:
        return visit([](float a, float b) { return a == b ? 1.0f : 0.0f; });
      case FusedOpCode::kLess:
        return visit([](float a, float b) { return a < b ? 1.0f : 0.0f; });
      case FusedOpCode::kGreater:
        return visit([](float a, float b) { return a > b ? 1.0f : 0.0f; });
      case FusedOpCode::kAnd:
        return visit([](float a, float b) {
            return (a != 0.0f && b != 0.0f) ? 1.0f : 0.0f;
        });
      case FusedOpCode::kOr:
        return visit([](float a, float b) {
            return (a != 0.0f || b != 0.0f) ? 1.0f : 0.0f;
        });
    }
    return visit([](float a, float) { return a; });
}

/** One element of one instruction. */
inline float
applyFusedOpcode(const FusedInstr& ins, float a, float b)
{
    float r = a;
    visitFusedOp(ins, [&](auto fn) { r = fn(a, b); });
    return r;
}

/**
 * One instruction over @p len elements: r[i] = op(a[i], b[i]). A
 * scalar operand (@p a_scalar / @p b_scalar) reads only its element 0.
 * @p r may alias @p a or @p b element for element. Exp, Sigmoid and
 * Softplus over a full operand run the vector expf when it is enabled.
 */
inline void
applyFusedOpcodeBlock(const FusedInstr& ins, const float* a, bool a_scalar,
                      const float* b, bool b_scalar, float* r, int64_t len)
{
    switch (ins.op) {
      case FusedOpCode::kExp:
        if (!a_scalar && vectorExpEnabled())
            return expBlock(a, r, len);
        break;
      case FusedOpCode::kSigmoid:
        if (!a_scalar && vectorExpEnabled())
            return sigmoidBlock(a, r, len);
        break;
      case FusedOpCode::kSoftplus:
        if (!a_scalar && vectorExpEnabled())
            return softplusBlock(a, r, len);
        break;
      default:
        break;
    }
    visitFusedOp(ins, [&](auto fn) {
        if (!a_scalar && !b_scalar) {
            for (int64_t i = 0; i < len; ++i)
                r[i] = fn(a[i], b[i]);
        } else if (!a_scalar) {
            float bv = b[0];
            for (int64_t i = 0; i < len; ++i)
                r[i] = fn(a[i], bv);
        } else if (!b_scalar) {
            float av = a[0];
            for (int64_t i = 0; i < len; ++i)
                r[i] = fn(av, b[i]);
        } else {
            float v = fn(a[0], b[0]);
            for (int64_t i = 0; i < len; ++i)
                r[i] = v;
        }
    });
}

/**
 * Evaluates the register program for one element. @p fetch maps an
 * external input index to the operand value for the current element.
 * The reference for evalFusedBlock.
 */
template <typename Fetch>
inline float
evalFusedProgram(const std::vector<FusedInstr>& program, float anchor,
                 int anchor_register, Fetch&& fetch)
{
    float regs[kMaxFusedRegisters];
    if (anchor_register >= 0)
        regs[anchor_register] = anchor;
    float result = anchor;
    int reg = anchor_register + 1;
    for (const FusedInstr& ins : program) {
        float a = ins.src0Scalar
                      ? ins.imm0
                      : (ins.src0 >= 0 ? regs[ins.src0] : fetch(~ins.src0));
        float b = 0.0f;
        if (ins.src1Used) {
            b = ins.src1Scalar
                    ? ins.imm1
                    : (ins.src1 >= 0 ? regs[ins.src1] : fetch(~ins.src1));
        }
        result = applyFusedOpcode(ins, a, b);
        regs[reg++] = result;
    }
    return result;
}

/**
 * Evaluates the non-empty register program over elements [0, @p len)
 * of one block, @p len <= kFusedBlock. @p anchor holds the anchor
 * register's values (ignored when @p anchor_register < 0); external e's
 * values are externals[e][offset .. offset + len). The last
 * instruction's results go to @p dst, which may alias @p anchor or an
 * external element for element.
 */
inline void
evalFusedBlock(const std::vector<FusedInstr>& program, int anchor_register,
               const float* anchor, const float* const* externals,
               int64_t offset, int64_t len, float* dst)
{
    float regs[kMaxFusedRegisters][kFusedBlock];
    const float* reg_ptr[kMaxFusedRegisters];
    if (anchor_register >= 0)
        reg_ptr[anchor_register] = anchor;
    auto operand = [&](int src, bool scalar, const float* imm) {
        if (scalar)
            return imm;
        return src >= 0 ? reg_ptr[src] : externals[~src] + offset;
    };
    int reg = anchor_register + 1;
    for (size_t i = 0; i < program.size(); ++i, ++reg) {
        const FusedInstr& ins = program[i];
        const float* a = operand(ins.src0, ins.src0Scalar, &ins.imm0);
        const float* b = a;
        bool b_scalar = ins.src0Scalar;
        if (ins.src1Used) {
            b = operand(ins.src1, ins.src1Scalar, &ins.imm1);
            b_scalar = ins.src1Scalar;
        }
        float* r = i + 1 == program.size() ? dst : regs[reg];
        applyFusedOpcodeBlock(ins, a, ins.src0Scalar, b, b_scalar, r, len);
        reg_ptr[reg] = r;
    }
}

/**
 * Epilogue handle heavy kernels accept: a program plus per-external
 * base pointers (same-shape operands, indexed by the flat output
 * element). Null program means "no epilogue".
 */
struct FusedEpilogue
{
    const std::vector<FusedInstr>* program = nullptr;
    int anchorRegister = 0;
    /** Base pointers indexed by external id (entries the program does
     *  not reference may be null). */
    const float* const* externals = nullptr;

    explicit operator bool() const
    {
        return program != nullptr && !program->empty();
    }

    /** One element (the reference for applyBlock). */
    float
    apply(float x, int64_t flat_index) const
    {
        return evalFusedProgram(*program, x, anchorRegister,
                                [&](int e) {
                                    return externals[e][flat_index];
                                });
    }

    /** dst[i] = apply(anchor[i], flat_begin + i) for i in [0, len),
     *  evaluated kFusedBlock elements at a time. @p dst may alias
     *  @p anchor. */
    void
    applyBlock(const float* anchor, float* dst, int64_t flat_begin,
               int64_t len) const
    {
        for (int64_t i = 0; i < len; i += kFusedBlock)
            evalFusedBlock(*program, anchorRegister, anchor + i, externals,
                           flat_begin + i, std::min(kFusedBlock, len - i),
                           dst + i);
    }
};

}  // namespace sod2

#endif  // SOD2_KERNELS_FUSED_PROGRAM_H_
