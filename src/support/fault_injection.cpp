#include "support/fault_injection.h"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <map>
#include <mutex>
#include <utility>

#include "support/env.h"
#include "support/logging.h"

namespace sod2 {
namespace fault {
namespace {

/** One relaxed load gates every site when nothing is armed. */
std::atomic<bool> g_armed{false};
std::atomic<uint64_t> g_fires{0};

/** Schedule of one armed site. Exactly one of nth/every is nonzero. */
struct SiteState {
    uint64_t nth = 0;    ///< one-shot: 1-based hit number that fires
    uint64_t every = 0;  ///< periodic: fires on every every-th hit
    uint64_t hits = 0;   ///< hits on this site since arming
};

/** Guards the armed-site table below. Ordered map so armedSites() is
 *  deterministic. */
std::mutex g_mu;
std::map<std::string, SiteState> g_sites;

bool
isKnownSite(const std::string& site)
{
    for (const std::string& s : knownSites())
        if (s == site)
            return true;
    return false;
}

/** Strict full-string parse of a positive integer (no trailing junk,
 *  no sign tricks, no overflow). Returns 0 on any malformation so the
 *  caller can reject with context. */
uint64_t
parseCount(const std::string& text)
{
    if (text.empty() || text[0] == '-' || text[0] == '+')
        return 0;
    errno = 0;
    char* end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return 0;
    return static_cast<uint64_t>(v);
}

/** Installs a fully-validated schedule table, replacing all arming. */
void
install(std::map<std::string, SiteState> sites)
{
    std::lock_guard<std::mutex> lock(g_mu);
    g_sites = std::move(sites);
    g_armed.store(!g_sites.empty(), std::memory_order_relaxed);
}

}  // namespace

const std::vector<std::string>&
knownSites()
{
    static const std::vector<std::string> sites = {
        kArenaAlloc, kPlanInstantiate, kKernelDispatch, kCacheInsert};
    return sites;
}

bool
shouldFail(const char* site)
{
    if (!g_armed.load(std::memory_order_relaxed))
        return false;
    std::lock_guard<std::mutex> lock(g_mu);
    // Re-check under the lock: another thread may have just fired the
    // last one-shot site.
    auto it = g_sites.find(site);
    if (it == g_sites.end())
        return false;
    SiteState& st = it->second;
    ++st.hits;
    if (st.every > 0) {
        // Periodic: fires on every every-th hit, stays armed.
        if (st.hits % st.every != 0)
            return false;
        g_fires.fetch_add(1, std::memory_order_relaxed);
        return true;
    }
    if (st.hits != st.nth)
        return false;
    // One-shot: the nth hit fires once, then the site disarms so the
    // very next run of the faulted path succeeds.
    g_sites.erase(it);
    if (g_sites.empty())
        g_armed.store(false, std::memory_order_relaxed);
    g_fires.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
arm(const std::string& site, uint64_t nth)
{
    SOD2_CHECK_CODE(isKnownSite(site), ErrorCode::kInvalidInput)
        << "unknown fault site '" << site
        << "' (see fault_injection.h for the catalog)";
    SOD2_CHECK_CODE(nth > 0, ErrorCode::kInvalidInput)
        << "fault nth is 1-based; 0 never fires";
    std::map<std::string, SiteState> sites;
    sites[site].nth = nth;
    install(std::move(sites));
}

void
armEvery(const std::string& site, uint64_t every)
{
    SOD2_CHECK_CODE(isKnownSite(site), ErrorCode::kInvalidInput)
        << "unknown fault site '" << site
        << "' (see fault_injection.h for the catalog)";
    SOD2_CHECK_CODE(every > 0, ErrorCode::kInvalidInput)
        << "fault period is 1-based; every=0 never fires";
    std::map<std::string, SiteState> sites;
    sites[site].every = every;
    install(std::move(sites));
}

void
armSpec(const std::string& spec)
{
    // Validate the whole spec into a staging table first, so a bad
    // entry anywhere leaves the current arming untouched.
    std::map<std::string, SiteState> sites;
    size_t pos = 0;
    while (pos <= spec.size()) {
        size_t comma = spec.find(',', pos);
        size_t end = comma == std::string::npos ? spec.size() : comma;
        std::string entry = spec.substr(pos, end - pos);
        pos = end + 1;
        SOD2_CHECK_CODE(!entry.empty(), ErrorCode::kInvalidInput)
            << "fault spec '" << spec << "': empty entry";
        std::string site = entry;
        SiteState st;
        st.nth = 1;
        size_t colon = entry.find(':');
        if (colon != std::string::npos) {
            site = entry.substr(0, colon);
            std::string sched = entry.substr(colon + 1);
            if (sched.rfind("every=", 0) == 0) {
                st.nth = 0;
                st.every = parseCount(sched.substr(6));
                SOD2_CHECK_CODE(st.every > 0, ErrorCode::kInvalidInput)
                    << "fault spec '" << spec << "': entry '" << entry
                    << "' needs every=<positive integer>";
            } else {
                st.nth = parseCount(sched);
                SOD2_CHECK_CODE(st.nth > 0, ErrorCode::kInvalidInput)
                    << "fault spec '" << spec << "': entry '" << entry
                    << "' needs a positive 1-based nth";
            }
        }
        SOD2_CHECK_CODE(isKnownSite(site), ErrorCode::kInvalidInput)
            << "fault spec '" << spec << "': unknown site '" << site
            << "' (see fault_injection.h for the catalog)";
        SOD2_CHECK_CODE(sites.find(site) == sites.end(),
                        ErrorCode::kInvalidInput)
            << "fault spec '" << spec << "': site '" << site
            << "' listed twice";
        sites[site] = st;
        if (comma == std::string::npos)
            break;
    }
    install(std::move(sites));
}

void
disarm()
{
    std::lock_guard<std::mutex> lock(g_mu);
    g_sites.clear();
    g_armed.store(false, std::memory_order_relaxed);
}

bool
armed()
{
    return g_armed.load(std::memory_order_relaxed);
}

std::vector<std::string>
armedSites()
{
    std::lock_guard<std::mutex> lock(g_mu);
    std::vector<std::string> names;
    names.reserve(g_sites.size());
    for (const auto& kv : g_sites)
        names.push_back(kv.first);
    return names;
}

uint64_t
fireCount()
{
    return g_fires.load(std::memory_order_relaxed);
}

void
initFromEnv()
{
    static const bool once = [] {
        std::string spec = env::readString("SOD2_FAULT");
        if (!spec.empty())
            armSpec(spec);
        return true;
    }();
    (void)once;
}

}  // namespace fault
}  // namespace sod2
