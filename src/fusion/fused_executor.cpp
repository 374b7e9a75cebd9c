#include "fusion/fused_executor.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "kernels/conv.h"
#include "kernels/elementwise.h"
#include "kernels/gemm.h"
#include "support/fault_injection.h"
#include "support/logging.h"
#include "support/threadpool.h"
#include "tensor/broadcast.h"

namespace sod2 {
CompiledGroup
CompiledGroup::compile(const Graph& graph, const FusionGroup& group)
{
    CompiledGroup cg;
    cg.kind_ = group.kind;
    cg.nodes_ = group.nodes;
    const Node& tail = graph.node(group.tail());
    cg.output_ = tail.outputs[0];

    if (group.kind == GroupKind::kSingle) {
        const Node& node = graph.node(group.nodes[0]);
        cg.inputs_ = node.inputs;
        cg.output_ = node.outputs[0];
        return cg;
    }

    // Register allocation: heavy anchors occupy register 0; every chain
    // node gets the next register in order.
    std::map<ValueId, int> reg_of;
    size_t first_chain = 0;
    if (group.kind == GroupKind::kHeavyWithEpilogue) {
        const Node& anchor = graph.node(group.nodes[0]);
        cg.inputs_ = anchor.inputs;  // anchor reads come first
        cg.anchorRegister_ = 0;
        reg_of[anchor.outputs[0]] = 0;
        first_chain = 1;
    } else {
        cg.anchorRegister_ = -1;
    }

    auto externalIndex = [&](ValueId v) {
        for (size_t i = 0; i < cg.inputs_.size(); ++i)
            if (cg.inputs_[i] == v)
                return static_cast<int>(i);
        cg.inputs_.push_back(v);
        return static_cast<int>(cg.inputs_.size()) - 1;
    };

    int next_reg = cg.anchorRegister_ + 1;
    for (size_t i = first_chain; i < group.nodes.size(); ++i) {
        const Node& node = graph.node(group.nodes[i]);
        SOD2_CHECK_LT(next_reg, kMaxFusedRegisters)
            << "fusion group too large to compile";
        FusedInstr ins = elementwiseInstr(node.op, node.attrs);

        auto operand = [&](ValueId v, int which) {
            auto it = reg_of.find(v);
            const Value& val = graph.value(v);
            bool scalar_const = val.isConstant() &&
                                val.constant.numElements() == 1 &&
                                val.constant.dtype() == DType::kFloat32;
            int src;
            bool is_scalar = false;
            float imm = 0.0f;
            if (it != reg_of.end()) {
                src = it->second;
            } else if (scalar_const) {
                is_scalar = true;
                imm = val.constant.data<float>()[0];
                src = 0;
            } else {
                src = ~externalIndex(v);
            }
            if (which == 0) {
                ins.src0 = src;
                ins.src0Scalar = is_scalar;
                ins.imm0 = imm;
            } else {
                ins.src1 = src;
                ins.src1Scalar = is_scalar;
                ins.imm1 = imm;
                ins.src1Used = true;
            }
        };
        operand(node.inputs[0], 0);
        if (node.inputs.size() > 1)
            operand(node.inputs[1], 1);
        SOD2_CHECK_LE(node.inputs.size(), 2u)
            << "fused ops are unary/binary";

        cg.program_.push_back(ins);
        reg_of[node.outputs[0]] = next_reg++;
    }
    // A chain's program writes its output; evalFusedBlock requires one.
    SOD2_CHECK(group.kind != GroupKind::kElementwiseChain ||
               !cg.program_.empty())
        << "elementwise chain group without nodes";
    for (const FusedInstr& ins : cg.program_) {
        auto note = [&](int src, bool scalar) {
            if (!scalar && src < 0)
                cg.usedExternals_.push_back(~src);
        };
        note(ins.src0, ins.src0Scalar);
        if (ins.src1Used)
            note(ins.src1, ins.src1Scalar);
    }
    return cg;
}

std::vector<Tensor>
CompiledGroup::run(const Graph& graph, const std::vector<Tensor>& ext,
                   const TensorAllocator& alloc,
                   const KernelConfig& config) const
{
    SOD2_CHECK_EQ(ext.size(), inputs_.size())
        << "fused group input arity mismatch";

    if (kind_ == GroupKind::kSingle) {
        // Singles dispatch through executeNode, which hosts the
        // kernel.dispatch fault site itself.
        return executeNode(graph, graph.node(nodes_[0]), ext, alloc, config);
    }

    // Fused kinds bypass executeNode, so they carry their own hook for
    // the same named site.
    if (fault::shouldFail(fault::kKernelDispatch))
        SOD2_THROW_CODE(ErrorCode::kKernelFailure)
            << "injected fault at " << fault::kKernelDispatch
            << ": fused-group dispatch anchored at op '"
            << graph.node(nodes_[0]).op << "' failed";

    if (kind_ == GroupKind::kHeavyWithEpilogue) {
        const Node& anchor = graph.node(nodes_[0]);
        size_t n_anchor_inputs = anchor.inputs.size();
        std::vector<Tensor> anchor_ins(ext.begin(),
                                       ext.begin() + n_anchor_inputs);
        std::vector<Shape> out_shapes =
            inferConcreteShapes(graph, anchor, anchor_ins);
        SOD2_CHECK_EQ(out_shapes.size(), 1u);
        Tensor out = alloc(DType::kFloat32, out_shapes[0]);

        // Epilogue externals (residual operands) read at the flat
        // output index — legal because fusion proved same-shape. They
        // may alias anchor inputs (residual of the conv's own input).
        std::vector<const float*> epi_ptr(ext.size(), nullptr);
        for (int e : usedExternals_) {
            SOD2_CHECK(ext[e].shape() == out.shape())
                << "epilogue external shape mismatch (fusion proof "
                   "violated at runtime)";
            epi_ptr[e] = ext[e].data<float>();
        }
        FusedEpilogue epi;
        if (!program_.empty()) {
            epi.program = &program_;
            epi.anchorRegister = anchorRegister_;
            epi.externals = epi_ptr.data();
        }

        if (anchor.op == "Conv") {
            const Tensor* bias =
                anchor_ins.size() > 2 ? &anchor_ins[2] : nullptr;
            conv2d(anchor_ins[0], anchor_ins[1], bias, &out,
                   anchor.attrs.getInt("stride", 1),
                   anchor.attrs.getInt("pad", 0),
                   anchor.attrs.getInt("group", 1), config.conv, epi);
        } else if (anchor.op == "MatMul") {
            matmul(anchor_ins[0], anchor_ins[1], &out, config.gemm, epi);
        } else {
            SOD2_THROW << "unsupported heavy anchor " << anchor.op;
        }
        if (config.meter) {
            std::vector<Shape> in_shapes;
            for (const Tensor& t : anchor_ins)
                in_shapes.push_back(t.shape());
            auto [flops, bytes] =
                nodeCost(anchor, in_shapes, {out.shape()});
            // The epilogue adds one flop per instruction per element
            // plus one streaming read per external — still no extra
            // intermediate materialization.
            flops += static_cast<double>(program_.size()) *
                     out.numElements();
            bytes += 4.0 * out.numElements() *
                     static_cast<double>(usedExternals_.size());
            config.meter->chargeKernel(flops, bytes);
        }
        return {out};
    }

    // Elementwise chain: output shape is the broadcast of all externals.
    std::vector<Shape> shapes;
    shapes.reserve(ext.size());
    for (const Tensor& t : ext)
        shapes.push_back(t.shape());
    Shape out_shape = broadcastShapes(shapes);
    Tensor out = alloc(DType::kFloat32, out_shape);

    auto out_strides = out_shape.strides();
    std::vector<std::vector<int64_t>> ext_strides;
    std::vector<const float*> ext_ptr;
    // Fast path: an external covering the whole output space reads at
    // the flat index directly (broadcastable + equal element count
    // implies equal extents modulo leading 1s).
    std::vector<bool> direct;
    ext_strides.reserve(ext.size());
    for (const Tensor& t : ext) {
        SOD2_CHECK(t.dtype() == DType::kFloat32)
            << "fused chains are f32-only";
        ext_strides.push_back(broadcastStrides(t.shape(), out_shape));
        ext_ptr.push_back(t.data<float>());
        direct.push_back(t.numElements() == out_shape.numElements());
    }

    // Block evaluation: direct externals are read in place; broadcast
    // ones are gathered into a stack buffer first, kGather floats
    // shared among them (so blocks shrink when many broadcast).
    constexpr int64_t kGather = 2048;
    constexpr size_t kMaxExternals = 2 * kMaxFusedRegisters;
    SOD2_CHECK_LE(ext.size(), kMaxExternals);
    int64_t broadcast = std::count(direct.begin(), direct.end(), false);
    int64_t block = std::min(kFusedBlock,
                             kGather / std::max<int64_t>(1, broadcast));
    float* po = out.data<float>();
    int64_t n = out_shape.numElements();
    parallelFor(
        n,
        [&](int64_t lo, int64_t hi) {
            float gathered[kGather];
            const float* block_ptr[kMaxExternals];
            for (int64_t i0 = lo; i0 < hi; i0 += block) {
                int64_t len = std::min(block, hi - i0);
                float* buf = gathered;
                for (size_t e = 0; e < ext.size(); ++e) {
                    if (direct[e]) {
                        block_ptr[e] = ext_ptr[e] + i0;
                        continue;
                    }
                    for (int64_t i = 0; i < len; ++i)
                        buf[i] = ext_ptr[e][broadcastIndex(
                            i0 + i, out_strides, ext_strides[e])];
                    block_ptr[e] = buf;
                    buf += block;
                }
                evalFusedBlock(program_, anchorRegister_, nullptr,
                               block_ptr, 0, len, po + i0);
            }
        },
        1 << 13);

    if (config.meter) {
        double bytes = 4.0 * n;
        for (const Tensor& t : ext)
            bytes += 4.0 * t.numElements();
        config.meter->chargeKernel(
            static_cast<double>(program_.size()) * n, bytes);
    }
    return {out};
}

std::vector<CompiledGroup>
compilePlan(const Graph& graph, const FusionPlan& plan)
{
    std::vector<CompiledGroup> out;
    out.reserve(plan.groups.size());
    for (const FusionGroup& grp : plan.groups)
        out.push_back(CompiledGroup::compile(graph, grp));
    return out;
}

}  // namespace sod2
