/**
 * @file
 * Library warm start: catalog resolution, the cache directory, and
 * their diagnostics (see catalog.hh for the contract).
 */

#include "decomp/catalog.hh"

#include <filesystem>

namespace mirage::decomp {

namespace {

std::string
cacheFile(const std::string &dir, int root_degree)
{
    return dir + "/eqlib-root" + std::to_string(root_degree) + ".cache";
}

} // namespace

std::string
resolveCatalogPath(const std::string &knob)
{
    if (knob == kCatalogDisabled)
        return "";
    if (!knob.empty())
        return knob;
    std::error_code ec;
    if (std::filesystem::exists(kCatalogFileName, ec))
        return kCatalogFileName;
    return "";
}

const char *
loadStatusName(EquivalenceLibrary::CacheLoadStatus status)
{
    switch (status) {
    case EquivalenceLibrary::CacheLoadStatus::Ok:
        return "ok";
    case EquivalenceLibrary::CacheLoadStatus::Unreadable:
        return "unreadable";
    case EquivalenceLibrary::CacheLoadStatus::Malformed:
        break;
    }
    return "malformed";
}

std::unique_ptr<EquivalenceLibrary>
loadCatalog(int root_degree, const std::string &knob, CatalogLoad *load)
{
    *load = {};
    if (root_degree != kCatalogRootDegree)
        return nullptr;
    load->path = resolveCatalogPath(knob);
    if (load->path.empty())
        return nullptr;
    auto lib = std::make_unique<EquivalenceLibrary>(root_degree,
                                                    /*preseed=*/false);
    load->result = lib->loadCacheFileDetailed(load->path);
    if (!load->loaded())
        return nullptr;
    return lib;
}

std::string
mergeCacheDir(EquivalenceLibrary &lib, const std::string &dir)
{
    if (dir.empty())
        return "";
    const auto res =
        lib.loadCacheFileDetailed(cacheFile(dir, lib.rootDegree()));
    if (res.status != EquivalenceLibrary::CacheLoadStatus::Malformed)
        return "";
    return "cache malformed: " + res.message + "; ignoring it";
}

std::unique_ptr<EquivalenceLibrary>
openLibrary(int root_degree, const std::string &knob,
            const std::string &dir, LibraryReport *report)
{
    auto lib = loadCatalog(root_degree, knob, &report->catalog);
    if (!lib)
        lib = std::make_unique<EquivalenceLibrary>(root_degree);
    report->cacheWarning = mergeCacheDir(*lib, dir);
    return lib;
}

std::string
saveLibrary(const EquivalenceLibrary &lib, const std::string &dir)
{
    if (dir.empty())
        return "";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string file = cacheFile(dir, lib.rootDegree());
    if (lib.saveCacheFile(file))
        return "";
    return "cannot write cache '" + file + "'";
}

} // namespace mirage::decomp
