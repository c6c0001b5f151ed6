#include "exec/backend.hh"

#include <cstdlib>

#include "sim/logging.hh"

namespace mssp
{

const char *
backendName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::Ref:      return "ref";
      case BackendKind::BlockJit: return "blockjit";
    }
    return "?";
}

std::optional<BackendKind>
backendFromName(const std::string &name)
{
    if (name == "ref")
        return BackendKind::Ref;
    if (name == "blockjit")
        return BackendKind::BlockJit;
    return std::nullopt;
}

namespace
{

BackendKind
backendFromEnv()
{
    const char *env = std::getenv("MSSP_EXEC_BACKEND");
    if (env == nullptr || *env == '\0')
        return BackendKind::Ref;
    if (auto kind = backendFromName(env))
        return *kind;
    warn("MSSP_EXEC_BACKEND=%s is not a backend (ref|blockjit); "
         "using ref", env);
    return BackendKind::Ref;
}

// Written only by setDefaultBackend (tool startup, before worker
// threads exist); read thereafter.
BackendKind g_default_backend = backendFromEnv();

} // anonymous namespace

BackendKind
defaultBackend()
{
    return g_default_backend;
}

void
setDefaultBackend(BackendKind kind)
{
    g_default_backend = kind;
}

} // namespace mssp
