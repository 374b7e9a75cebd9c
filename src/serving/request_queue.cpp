#include "serving/request_queue.h"

#include <algorithm>
#include <utility>

namespace sod2 {
namespace serving {

bool
RequestQueue::push(Pending&& p)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (closed_)
            return false;
        // First position whose priority is strictly lower: inserting
        // there keeps the deque priority-descending and, because pushes
        // arrive in admission order, FIFO within each priority.
        auto it = std::find_if(items_.begin(), items_.end(),
                               [&](const Pending& q) {
                                   return q.priority < p.priority;
                               });
        items_.insert(it, std::move(p));
    }
    cv_.notify_one();  // the one worker blocked in pop()
    return true;
}

bool
RequestQueue::pop(Pending* out)
{
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty())
        return false;  // closed and drained
    *out = std::move(items_.front());
    items_.pop_front();
    return true;
}

void
RequestQueue::close()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        closed_ = true;
    }
    cv_.notify_all();
}

std::deque<Pending>
RequestQueue::drainNow()
{
    std::lock_guard<std::mutex> lock(mu_);
    std::deque<Pending> out;
    out.swap(items_);
    return out;
}

size_t
RequestQueue::depth() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
}

bool
RequestQueue::closed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
}

}  // namespace serving
}  // namespace sod2
