#include "kernels/data_movement.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "support/logging.h"
#include "support/threadpool.h"

namespace sod2 {
namespace {

/** Dims stridedCopy walks on the stack. A box with more dims left after
 *  canonicalisation runs the reference loop. */
constexpr int kMaxCopyRank = 8;

/** Bytes a row chunk must reach before a copy is split across the
 *  pool. Splitting CodeBERT's head transposes (72 KiB at length 384)
 *  measured slower than copying them on one thread (DESIGN.md §17). */
constexpr int64_t kSplitBytes = int64_t{128} << 10;

/** Panel rows shorter than this many elements are walked by columns. */
constexpr int64_t kShortRun = 16;

/**
 * A copy box in canonical form: no extent-1 dims, no two adjacent dims
 * that are contiguous on both sides, strides in bytes. It has at least
 * two dims (padded on the outside with extent 1). The last two form the
 * panel copyPanel copies; an odometer walks the ones outside it.
 */
struct CopyBox
{
    int rank = 0;
    int64_t dims[kMaxCopyRank] = {};
    int64_t dst[kMaxCopyRank] = {};
    int64_t src[kMaxCopyRank] = {};
};

/** Canonicalises an element-stride box of @p esz-byte elements into
 *  @p box; false when more than kMaxCopyRank dims remain. */
bool
canonicalize(const std::vector<int64_t>& dims,
             const std::vector<int64_t>& dst_strides,
             const std::vector<int64_t>& src_strides, int64_t esz,
             CopyBox* box)
{
    int r = 0;
    for (size_t d = 0; d < dims.size(); ++d) {
        int64_t n = dims[d];
        if (n == 1)
            continue;
        int64_t ds = dst_strides[d] * esz, ss = src_strides[d] * esz;
        if (r > 0 && box->dst[r - 1] == ds * n && box->src[r - 1] == ss * n) {
            // The outer dim steps exactly over this one on both sides.
            box->dims[r - 1] *= n;
            box->dst[r - 1] = ds;
            box->src[r - 1] = ss;
            continue;
        }
        if (r == kMaxCopyRank)
            return false;
        box->dims[r] = n;
        box->dst[r] = ds;
        box->src[r] = ss;
        ++r;
    }
    int pad = std::max(0, 2 - r);
    for (int d = r - 1; d >= 0; --d) {
        box->dims[d + pad] = box->dims[d];
        box->dst[d + pad] = box->dst[d];
        box->src[d + pad] = box->src[d];
    }
    for (int d = 0; d < pad; ++d) {
        box->dims[d] = 1;
        box->dst[d] = 0;
        box->src[d] = 0;
    }
    box->rank = r + pad;
    return true;
}

/** Copies @p n elements of type T placed @p dstep and @p sstep bytes
 *  apart; a source step of 0 broadcasts one element. */
template <typename T>
void
copyRun(uint8_t* dst, const uint8_t* src, int64_t n, int64_t dstep,
        int64_t sstep)
{
    T v;
    if (sstep == 0) {
        std::memcpy(&v, src, sizeof(T));
        for (int64_t j = 0; j < n; ++j)
            std::memcpy(dst + j * dstep, &v, sizeof(T));
        return;
    }
    for (int64_t j = 0; j < n; ++j) {
        std::memcpy(&v, src + j * sstep, sizeof(T));
        std::memcpy(dst + j * dstep, &v, sizeof(T));
    }
}

/** Copies a panel of @p rows runs of @p cols elements (byte strides). */
template <typename T>
void
copyPanel(uint8_t* dst, const uint8_t* src, int64_t rows, int64_t drow,
          int64_t srow, int64_t cols, int64_t dcol, int64_t scol)
{
    constexpr int64_t esz = sizeof(T);
    if (dcol == esz && scol == esz) {
        for (int64_t i = 0; i < rows; ++i)
            std::memcpy(dst + i * drow, src + i * srow, cols * esz);
        return;
    }
    // A short run pays its loop overhead every few elements, so walk
    // such a panel by columns. Only short ones: the column walk writes
    // every destination line once per column, which costs more than
    // strided reads once a panel outgrows L1.
    if (cols < kShortRun && rows > cols) {
        std::swap(rows, cols);
        std::swap(drow, dcol);
        std::swap(srow, scol);
    }
    for (int64_t i = 0; i < rows; ++i)
        copyRun<T>(dst + i * drow, src + i * srow, cols, dcol, scol);
}

/**
 * Copies rows [begin, end) of @p b, where a row is one panel row under
 * one odometer position. Only the start position is found by division.
 */
template <typename T>
void
copyRows(const CopyBox& b, uint8_t* dst, const uint8_t* src, int64_t begin,
         int64_t end)
{
    const int outer = b.rank - 2;
    const int64_t rows = b.dims[outer];
    int64_t idx[kMaxCopyRank] = {};
    int64_t pos = begin / rows, row = begin % rows;
    int64_t doff = 0, soff = 0;
    for (int d = outer - 1; d >= 0; --d) {
        idx[d] = pos % b.dims[d];
        pos /= b.dims[d];
        doff += idx[d] * b.dst[d];
        soff += idx[d] * b.src[d];
    }
    for (int64_t left = end - begin; left > 0;) {
        int64_t n = std::min(rows - row, left);
        copyPanel<T>(dst + doff + row * b.dst[outer],
                     src + soff + row * b.src[outer], n, b.dst[outer],
                     b.src[outer], b.dims[outer + 1], b.dst[outer + 1],
                     b.src[outer + 1]);
        left -= n;
        row = 0;
        for (int d = outer - 1; d >= 0; --d) {
            doff += b.dst[d];
            soff += b.src[d];
            if (++idx[d] < b.dims[d])
                break;
            doff -= b.dims[d] * b.dst[d];
            soff -= b.dims[d] * b.src[d];
            idx[d] = 0;
        }
    }
}

template <typename T>
void
copyBox(const CopyBox& b, uint8_t* dst, const uint8_t* src)
{
    int64_t rows = 1;
    for (int d = 0; d + 1 < b.rank; ++d)
        rows *= b.dims[d];
    int64_t row_bytes = b.dims[b.rank - 1] * static_cast<int64_t>(sizeof(T));
    int64_t grain = (kSplitBytes + row_bytes - 1) / row_bytes;
    // Under two chunks' worth, the copy stays on the calling thread.
    if (rows < 2 * grain) {
        copyRows<T>(b, dst, src, 0, rows);
        return;
    }
    parallelFor(
        rows,
        [&](int64_t begin, int64_t end) {
            copyRows<T>(b, dst, src, begin, end);
        },
        grain);
}

}  // namespace

void
stridedCopy(void* dst, const std::vector<int64_t>& dst_strides,
            const void* src, const std::vector<int64_t>& src_strides,
            const std::vector<int64_t>& dims, size_t elem_size)
{
    SOD2_CHECK_EQ(dst_strides.size(), dims.size());
    SOD2_CHECK_EQ(src_strides.size(), dims.size());
    for (int64_t n : dims)
        if (n == 0)
            return;
    auto* d = static_cast<uint8_t*>(dst);
    const auto* s = static_cast<const uint8_t*>(src);
    CopyBox box;
    if (canonicalize(dims, dst_strides, src_strides,
                     static_cast<int64_t>(elem_size), &box)) {
        switch (elem_size) {
          case 1: copyBox<uint8_t>(box, d, s); return;
          case 4: copyBox<uint32_t>(box, d, s); return;
          case 8: copyBox<uint64_t>(box, d, s); return;
          default: break;
        }
    }
    stridedCopyReference(dst, dst_strides, src, src_strides, dims,
                         elem_size);
}

void
stridedCopyReference(void* dst, const std::vector<int64_t>& dst_strides,
                     const void* src, const std::vector<int64_t>& src_strides,
                     const std::vector<int64_t>& dims, size_t elem_size)
{
    SOD2_CHECK_EQ(dst_strides.size(), dims.size());
    SOD2_CHECK_EQ(src_strides.size(), dims.size());
    auto* d = static_cast<uint8_t*>(dst);
    const auto* s = static_cast<const uint8_t*>(src);
    Shape box(dims);
    auto box_strides = box.strides();
    int64_t n = box.numElements();
    int64_t esz = static_cast<int64_t>(elem_size);
    for (int64_t i = 0; i < n; ++i) {
        int64_t rem = i, si = 0, di = 0;
        for (size_t k = 0; k < dims.size(); ++k) {
            int64_t coord = box_strides[k] ? rem / box_strides[k] : 0;
            rem -= coord * box_strides[k];
            si += coord * src_strides[k];
            di += coord * dst_strides[k];
        }
        std::memcpy(d + di * esz, s + si * esz, elem_size);
    }
}

void
transpose(const Tensor& in, const std::vector<int64_t>& perm, Tensor* out)
{
    int rank = in.shape().rank();
    SOD2_CHECK_EQ(static_cast<int>(perm.size()), rank);
    auto in_strides = in.shape().strides();
    // Output dim d walks input dim perm[d].
    std::vector<int64_t> src_strides(rank);
    for (int d = 0; d < rank; ++d)
        src_strides[d] =
            in_strides[normalizeAxis(static_cast<int>(perm[d]), rank)];
    stridedCopy(out->raw(), out->shape().strides(), in.raw(), src_strides,
                out->shape().dims(), dtypeSize(in.dtype()));
}

void
slice(const Tensor& in, const std::vector<int64_t>& starts,
      const std::vector<int64_t>& ends, const std::vector<int64_t>& axes,
      const std::vector<int64_t>& steps, Tensor* out)
{
    const Shape& is = in.shape();
    int rank = is.rank();
    std::vector<int64_t> start(rank, 0), step(rank, 1);
    for (size_t i = 0; i < starts.size(); ++i) {
        int axis = axes.empty() ? static_cast<int>(i)
                                : normalizeAxis(
                                      static_cast<int>(axes[i]), rank);
        int64_t d = is.dim(axis);
        int64_t s = starts[i];
        if (s < 0)
            s += d;
        start[axis] = std::clamp<int64_t>(s, 0, d);
        step[axis] = steps.empty() ? 1 : steps[i];
        (void)ends;  // out's shape already encodes the extent
    }
    if (out->numElements() == 0)
        return;

    auto in_strides = is.strides();
    int64_t offset = 0;
    std::vector<int64_t> src_strides(rank);
    for (int d = 0; d < rank; ++d) {
        offset += start[d] * in_strides[d];
        src_strides[d] = step[d] * in_strides[d];
    }
    size_t esz = dtypeSize(in.dtype());
    stridedCopy(out->raw(), out->shape().strides(),
                static_cast<const uint8_t*>(in.raw()) + offset * esz,
                src_strides, out->shape().dims(), esz);
}

void
concat(const std::vector<Tensor>& ins, int axis, Tensor* out)
{
    SOD2_CHECK(!ins.empty());
    if (out->numElements() == 0)
        return;
    const Shape& os = out->shape();
    axis = normalizeAxis(axis, os.rank());
    auto out_strides = os.strides();
    size_t esz = dtypeSize(out->dtype());
    uint8_t* dst = static_cast<uint8_t*>(out->raw());
    int64_t offset = 0;
    for (const Tensor& t : ins) {
        stridedCopy(dst + offset * out_strides[axis] * esz, out_strides,
                    t.raw(), t.shape().strides(), t.shape().dims(), esz);
        offset += t.shape().dim(axis);
    }
}

void
split(const Tensor& in, int axis, std::vector<Tensor>* outs)
{
    const Shape& is = in.shape();
    axis = normalizeAxis(axis, is.rank());
    auto in_strides = is.strides();
    size_t esz = dtypeSize(in.dtype());
    const uint8_t* src = static_cast<const uint8_t*>(in.raw());
    int64_t offset = 0;
    for (Tensor& t : *outs) {
        int64_t ext = t.shape().dim(axis);
        SOD2_CHECK_LE(offset + ext, is.dim(axis));
        if (t.numElements() > 0)
            stridedCopy(t.raw(), t.shape().strides(),
                        src + offset * in_strides[axis] * esz, in_strides,
                        t.shape().dims(), esz);
        offset += ext;
    }
}

void
gather(const Tensor& in, const Tensor& indices, int axis, Tensor* out)
{
    const Shape& is = in.shape();
    axis = normalizeAxis(axis, is.rank());
    int64_t outer = 1, inner = 1;
    for (int i = 0; i < axis; ++i)
        outer *= is.dim(i);
    for (int i = axis + 1; i < is.rank(); ++i)
        inner *= is.dim(i);
    int64_t ext = is.dim(axis);
    std::vector<int64_t> idx = indices.toInt64Vector();
    size_t esz = dtypeSize(in.dtype());
    const uint8_t* src = static_cast<const uint8_t*>(in.raw());
    uint8_t* dst = static_cast<uint8_t*>(out->raw());
    int64_t k = static_cast<int64_t>(idx.size());
    for (int64_t o = 0; o < outer; ++o) {
        for (int64_t j = 0; j < k; ++j) {
            int64_t sel = idx[j];
            if (sel < 0)
                sel += ext;
            SOD2_CHECK(sel >= 0 && sel < ext)
                << "gather index " << idx[j] << " out of range " << ext;
            std::memcpy(dst + ((o * k + j) * inner) * esz,
                        src + ((o * ext + sel) * inner) * esz,
                        inner * esz);
        }
    }
}

void
expandTo(const Tensor& in, Tensor* out)
{
    const Shape& is = in.shape();
    const Shape& os = out->shape();
    auto in_strides = is.strides();
    // Leading dims the input lacks, and its extent-1 dims, broadcast.
    std::vector<int64_t> src_strides(os.rank(), 0);
    for (int i = 0; i < is.rank(); ++i)
        if (is.dim(i) != 1)
            src_strides[os.rank() - is.rank() + i] = in_strides[i];
    stridedCopy(out->raw(), os.strides(), in.raw(), src_strides, os.dims(),
                dtypeSize(in.dtype()));
}

void
pad2d(const Tensor& in, int64_t pad, float value, Tensor* out)
{
    const Shape& is = in.shape();
    int64_t nc = is.dim(0) * is.dim(1);
    int64_t h = is.dim(2), w = is.dim(3);
    int64_t oh = h + 2 * pad, ow = w + 2 * pad;
    const float* src = in.data<float>();
    float* dst = out->data<float>();
    for (int64_t t = 0; t < nc; ++t) {
        float* obase = dst + t * oh * ow;
        const float* ibase = src + t * h * w;
        for (int64_t i = 0; i < oh * ow; ++i)
            obase[i] = value;
        for (int64_t y = 0; y < h; ++y)
            std::memcpy(obase + (y + pad) * ow + pad, ibase + y * w,
                        w * sizeof(float));
    }
}

void
tile(const Tensor& in, const std::vector<int64_t>& repeats, Tensor* out)
{
    const Shape& is = in.shape();
    const Shape& os = out->shape();
    SOD2_CHECK_EQ(repeats.size(), static_cast<size_t>(is.rank()));
    auto in_strides = is.strides();
    auto out_strides = os.strides();
    // Output dim d is (repeat, extent): each repeat writes the next
    // input-sized block of the output and re-reads the input.
    std::vector<int64_t> dims, dst_strides, src_strides;
    for (int d = 0; d < is.rank(); ++d) {
        SOD2_CHECK_EQ(os.dim(d), is.dim(d) * repeats[d]);
        dims.insert(dims.end(), {repeats[d], is.dim(d)});
        dst_strides.insert(dst_strides.end(),
                           {is.dim(d) * out_strides[d], out_strides[d]});
        src_strides.insert(src_strides.end(), {0, in_strides[d]});
    }
    stridedCopy(out->raw(), dst_strides, in.raw(), src_strides, dims,
                dtypeSize(in.dtype()));
}

void
resizeNearest(const Tensor& in, int64_t sh, int64_t sw, Tensor* out)
{
    const Shape& is = in.shape();
    int64_t nc = is.dim(0) * is.dim(1);
    int64_t h = is.dim(2), w = is.dim(3);
    SOD2_CHECK_EQ(out->numElements(), nc * h * sh * w * sw);
    // Output [nc, h * sh, w * sw] read as [nc, h, sh, w, sw]: the sh and
    // sw dims repeat one source element.
    std::vector<int64_t> dims = {nc, h, sh, w, sw};
    stridedCopy(out->raw(), Shape(dims).strides(), in.raw(),
                {h * w, w, 0, 1, 0}, dims, dtypeSize(in.dtype()));
}

void
eyeLike(const Tensor& in, Tensor* out)
{
    const Shape& s = in.shape();
    SOD2_CHECK_EQ(s.rank(), 2);
    float* dst = out->data<float>();
    std::memset(dst, 0, out->byteSize());
    int64_t d = std::min(s.dim(0), s.dim(1));
    for (int64_t i = 0; i < d; ++i)
        dst[i * s.dim(1) + i] = 1.0f;
}

void
oneHot(const Tensor& indices, int64_t depth, Tensor* out)
{
    std::vector<int64_t> idx = indices.toInt64Vector();
    float* dst = out->data<float>();
    std::memset(dst, 0, out->byteSize());
    for (size_t i = 0; i < idx.size(); ++i) {
        int64_t v = idx[i];
        if (v < 0)
            v += depth;
        if (v >= 0 && v < depth)
            dst[i * depth + v] = 1.0f;
    }
}

void
rangeFill(double start, double delta, Tensor* out)
{
    int64_t n = out->numElements();
    if (out->dtype() == DType::kInt64) {
        int64_t* p = out->data<int64_t>();
        for (int64_t i = 0; i < n; ++i)
            p[i] = static_cast<int64_t>(start + i * delta);
    } else {
        float* p = out->data<float>();
        for (int64_t i = 0; i < n; ++i)
            p[i] = static_cast<float>(start + i * delta);
    }
}

void
topK(const Tensor& in, int64_t k, int axis, Tensor* values, Tensor* indices)
{
    const Shape& is = in.shape();
    axis = normalizeAxis(axis, is.rank());
    int64_t outer = 1, inner = 1;
    for (int i = 0; i < axis; ++i)
        outer *= is.dim(i);
    for (int i = axis + 1; i < is.rank(); ++i)
        inner *= is.dim(i);
    int64_t ext = is.dim(axis);
    SOD2_CHECK_LE(k, ext) << "TopK k exceeds axis extent";
    const float* src = in.data<float>();
    float* pv = values->data<float>();
    int64_t* pi = indices->data<int64_t>();

    std::vector<int64_t> order(ext);
    for (int64_t o = 0; o < outer; ++o) {
        for (int64_t i = 0; i < inner; ++i) {
            const float* base = src + o * ext * inner + i;
            std::iota(order.begin(), order.end(), 0);
            std::partial_sort(
                order.begin(), order.begin() + k, order.end(),
                [&](int64_t a, int64_t b) {
                    float va = base[a * inner], vb = base[b * inner];
                    return va > vb || (va == vb && a < b);
                });
            for (int64_t j = 0; j < k; ++j) {
                pv[(o * k + j) * inner + i] = base[order[j] * inner];
                pi[(o * k + j) * inner + i] = order[j];
            }
        }
    }
}

Tensor
nonZero(const Tensor& in)
{
    const Shape& s = in.shape();
    int rank = std::max(1, s.rank());
    auto strides = s.strides();
    std::vector<int64_t> hits;
    int64_t n = in.numElements();
    auto isNonZero = [&](int64_t i) {
        switch (in.dtype()) {
          case DType::kFloat32: return in.data<float>()[i] != 0.0f;
          case DType::kInt64: return in.data<int64_t>()[i] != 0;
          case DType::kInt32: return in.data<int32_t>()[i] != 0;
          case DType::kBool: return in.data<bool>()[i];
        }
        return false;
    };
    for (int64_t i = 0; i < n; ++i)
        if (isNonZero(i))
            hits.push_back(i);

    Tensor out(DType::kInt64,
               Shape({rank, static_cast<int64_t>(hits.size())}));
    int64_t* p = out.data<int64_t>();
    for (size_t j = 0; j < hits.size(); ++j) {
        int64_t rem = hits[j];
        if (s.rank() == 0) {
            p[j] = 0;
            continue;
        }
        for (int d = 0; d < s.rank(); ++d) {
            int64_t coord = strides[d] ? rem / strides[d] : 0;
            rem -= coord * strides[d];
            p[d * hits.size() + j] = coord;
        }
    }
    return out;
}

Tensor
nonMaxSuppression(const Tensor& boxes, const Tensor& scores,
                  float iou_threshold, float score_threshold)
{
    const Shape& bs = boxes.shape();
    SOD2_CHECK_EQ(bs.rank(), 2);
    SOD2_CHECK_EQ(bs.dim(1), 4);
    int64_t n = bs.dim(0);
    SOD2_CHECK_EQ(scores.numElements(), n);
    const float* pb = boxes.data<float>();
    const float* ps = scores.data<float>();

    std::vector<int64_t> order;
    for (int64_t i = 0; i < n; ++i)
        if (ps[i] >= score_threshold)
            order.push_back(i);
    std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
        return ps[a] > ps[b] || (ps[a] == ps[b] && a < b);
    });

    auto iou = [&](int64_t a, int64_t b) {
        const float* ba = pb + a * 4;
        const float* bb = pb + b * 4;
        float x0 = std::max(ba[0], bb[0]);
        float y0 = std::max(ba[1], bb[1]);
        float x1 = std::min(ba[2], bb[2]);
        float y1 = std::min(ba[3], bb[3]);
        float inter = std::max(0.0f, x1 - x0) * std::max(0.0f, y1 - y0);
        float area_a = (ba[2] - ba[0]) * (ba[3] - ba[1]);
        float area_b = (bb[2] - bb[0]) * (bb[3] - bb[1]);
        float uni = area_a + area_b - inter;
        return uni > 0.0f ? inter / uni : 0.0f;
    };

    std::vector<int64_t> keep;
    for (int64_t cand : order) {
        bool ok = true;
        for (int64_t sel : keep) {
            if (iou(cand, sel) > iou_threshold) {
                ok = false;
                break;
            }
        }
        if (ok)
            keep.push_back(cand);
    }
    return Tensor::fromInt64(keep);
}

}  // namespace sod2
