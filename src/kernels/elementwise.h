#ifndef SOD2_KERNELS_ELEMENTWISE_H_
#define SOD2_KERNELS_ELEMENTWISE_H_

/**
 * @file
 * Elementwise kernels: typed unary/binary application with NumPy
 * broadcasting. On f32 they resolve the op name once per call to the
 * opcode table of kernels/fused_program.h, which fused chains also run
 * (paper Figure 4's green box), and evaluate it block by block.
 */

#include <cstdint>
#include <string>

#include "graph/attr.h"
#include "kernels/fused_program.h"
#include "tensor/tensor.h"

namespace sod2 {

/** A one-op program instruction for elementwise op @p name ("Relu",
 *  "Add", ...): its op-table opcode, with parameters read from @p attrs
 *  (LeakyRelu alpha, Clip bounds); operands unset. Throws for a name
 *  the table lacks. */
FusedInstr elementwiseInstr(const std::string& name, const AttrMap& attrs);

/** True when @p name is a registered unary elementwise op. */
bool isUnaryElementwise(const std::string& name);
/** True when @p name is a registered binary elementwise op
 *  (including comparisons, which produce bool). */
bool isBinaryElementwise(const std::string& name);
/** True when @p name is a comparison/logical op with bool output. */
bool isComparison(const std::string& name);

/** out = op(in) elementwise; shapes must match. */
void ewUnary(const std::string& name, const Tensor& in, Tensor* out,
             const AttrMap& attrs);

/** out = op(a, b) with broadcasting; @p out pre-sized to the broadcast
 *  shape. Supports f32 and (for arithmetic) int64 operands. */
void ewBinary(const std::string& name, const Tensor& a, const Tensor& b,
              Tensor* out);

/** out = cond ? a : b with broadcasting. */
void ewWhere(const Tensor& cond, const Tensor& a, const Tensor& b,
             Tensor* out);

/** dtype conversion. */
void castTo(const Tensor& in, Tensor* out);

}  // namespace sod2

#endif  // SOD2_KERNELS_ELEMENTWISE_H_
