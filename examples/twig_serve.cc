// twig_serve: the estimation server (DESIGN.md §10). Summarizes a
// document into a CST snapshot, publishes it to a SnapshotCatalog, and
// serves estimate/explain/metrics/swap requests over newline-delimited
// JSON on loopback TCP.
//
//   ./twig_serve                         # generated DBLP data, port 7411
//   ./twig_serve --xml=file.xml          # serve your own document
//   ./twig_serve --port=0 --port-file=p  # ephemeral port, written to ./p
//   ./twig_serve --store=cst.twcst03 --buffer-mb=16
//                                        # serve a paged store, no parse
//   ./twig_serve --datasets=eu:65536,us:131072 \
//                --tenants=gold=0:8:4,probe=5:2:1
//                                        # extra datasets + tenant quotas
//
// Stop it with {"op":"shutdown"} (e.g. via twig_client --op=shutdown).

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cst/cst.h"
#include "cst/paged_cst.h"
#include "data/generators.h"
#include "serve/service.h"
#include "serve/snapshot.h"
#include "serve/tcp.h"
#include "storage/page.h"
#include "suffix/path_suffix_tree.h"
#include "tree/tree.h"
#include "util/failpoint.h"
#include "util/flags.h"
#include "util/strings.h"
#include "xml/xml.h"

namespace {

using namespace twig;

struct Options {
  size_t port = 7411;
  std::string port_file;
  std::string xml_path;
  size_t bytes = 2 * 1024 * 1024;
  double space = 0.01;
  size_t workers = 2;
  size_t conns = 4;
  size_t queue = 256;
  size_t deadline_ms = 0;
  size_t cache_entries = 0;
  size_t cache_shards = 8;
  size_t recorder_entries = 256;
  size_t slow_us = 50000;
  size_t accuracy_sample = 256;
  std::string failpoints;
  size_t failpoint_seed = 0;
  std::string store_path;
  std::string store_out;
  double buffer_mb = 16;
  size_t page_bytes = storage::kDefaultPageBytes;
  std::string datasets;
  std::string tenants;
};

constexpr char kUsage[] =
    "usage: twig_serve [--port=N] [--port-file=PATH] [--xml=FILE]\n"
    "                  [--bytes=N] [--space=F] [--workers=N] [--conns=N]\n"
    "                  [--queue=N] [--deadline-ms=N] [--cache-entries=N]\n"
    "                  [--cache-shards=N] [--recorder-entries=N]\n"
    "                  [--slow-us=N] [--accuracy-sample=N]\n"
    "  --port=N         TCP port on 127.0.0.1; 0 = ephemeral (default "
    "7411)\n"
    "  --port-file=PATH write the bound port to PATH (for scripts)\n"
    "  --xml=FILE       serve FILE instead of generated DBLP data\n"
    "  --bytes=N        generated data target size in bytes (default "
    "2097152)\n"
    "  --space=F        CST space fraction of the data (default 0.01)\n"
    "  --workers=N      estimation worker threads (default 2)\n"
    "  --conns=N        concurrent client connections (default 4)\n"
    "  --queue=N        request queue capacity (default 256)\n"
    "  --deadline-ms=N  default per-request deadline; 0 = none\n"
    "  --cache-entries=N result cache capacity; 0 = cache off (default)\n"
    "  --cache-shards=N  result cache shards (default 8)\n"
    "  --recorder-entries=N flight recorder span slots; 0 = tracing off\n"
    "                   (default 256)\n"
    "  --slow-us=N      retain spans at least this slow in the slow log;\n"
    "                   0 = slow log off (default 50000)\n"
    "  --accuracy-sample=N re-execute every Nth estimate exactly and\n"
    "                   record its relative error; 0 = off (default 256)\n"
    "  --failpoints=LIST arm failpoints at startup, e.g.\n"
    "                   serve/estimate=error:0.1,tcp/write=error:0.05\n"
    "                   (also settable at runtime via the failpoint verb)\n"
    "  --failpoint-seed=N seed probabilistic failpoint draws; 0 = default\n"
    "  --store=FILE     serve a paged TWCST03 store (mmap, no document\n"
    "                   parse; excludes --xml; swap re-opens the store)\n"
    "  --store-out=FILE summarize the document, write the CST to FILE as\n"
    "                   TWCST03, and serve the paged store; swap rebuilds\n"
    "                   and rewrites it\n"
    "  --buffer-mb=F    storage buffer pool size in MiB for paged serving\n"
    "                   (default 16; fractional values allowed)\n"
    "  --page-bytes=N   TWCST03 page size for --store-out (default "
    "65536)\n"
    "  --datasets=LIST  extra generated datasets beside \"default\", as\n"
    "                   id:bytes,... (each its own snapshot lineage, seed\n"
    "                   derived from the id, swappable independently via\n"
    "                   the \"dataset\" wire field)\n"
    "  --tenants=LIST   per-tenant admission quotas, as\n"
    "                   name=rate:burst:weight,... (rate in requests/s,\n"
    "                   0 = unlimited; burst and weight optional,\n"
    "                   defaults 8 and 1)\n";

tree::Tree LoadOrGenerate(const Options& options) {
  if (!options.xml_path.empty()) {
    std::ifstream in(options.xml_path);
    if (!in) {
      std::fprintf(stderr, "twig_serve: cannot open %s\n",
                   options.xml_path.c_str());
      std::exit(1);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    auto parsed = xml::ParseXml(buf.str());
    if (!parsed.ok()) {
      std::fprintf(stderr, "twig_serve: parse error in %s: %s\n",
                   options.xml_path.c_str(),
                   parsed.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(parsed).value();
  }
  data::DblpOptions gen;
  gen.target_bytes = options.bytes;
  return data::GenerateDblp(gen);
}

cst::Cst BuildSummary(const tree::Tree& data,
                      const suffix::PathSuffixTree& pst, size_t xml_bytes,
                      double space) {
  cst::CstOptions copt;
  copt.space_budget_bytes =
      static_cast<size_t>(space * static_cast<double>(xml_bytes));
  return cst::Cst::Build(data, pst, copt);
}

/// The in-memory swap hook: rebuilds the summary of `data` at the
/// requested space fraction (0 = `default_space`).
std::function<Result<std::shared_ptr<const cst::CstView>>(double)>
InMemoryRebuild(std::shared_ptr<const tree::Tree> data,
                std::shared_ptr<const suffix::PathSuffixTree> pst,
                size_t xml_bytes, double default_space) {
  return [data, pst, xml_bytes, default_space](double space)
             -> Result<std::shared_ptr<const cst::CstView>> {
    return std::shared_ptr<const cst::CstView>(
        std::make_shared<const cst::Cst>(BuildSummary(
            *data, *pst, xml_bytes, space > 0 ? space : default_space)));
  };
}

Status WriteStoreFile(const std::string& path, const std::string& blob) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Internal("cannot open " + path + " for writing");
  }
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  out.flush();
  if (!out) return Status::Internal("short write to " + path);
  return Status::OK();
}

/// Opens a paged reader over the TWCST03 store at `path`.
Result<std::shared_ptr<const cst::CstView>> OpenStore(const std::string& path,
                                                      size_t pool_bytes) {
  cst::PagedCstOptions popt;
  popt.pool_bytes = pool_bytes;
  Result<std::shared_ptr<cst::PagedCst>> opened =
      cst::PagedCst::OpenFile(path, popt);
  if (!opened.ok()) return opened.status();
  return std::shared_ptr<const cst::CstView>(std::move(opened).value());
}

/// Builds a CST at `space`, writes it to `path` as TWCST03, and opens
/// a paged reader over the freshly written file. The swap op runs this
/// end to end so the on-disk store always matches what is served.
Result<std::shared_ptr<const cst::CstView>> RebuildStore(
    const tree::Tree& data, const suffix::PathSuffixTree& pst,
    size_t xml_bytes, double space, const std::string& path,
    size_t page_bytes, size_t pool_bytes) {
  const cst::Cst summary = BuildSummary(data, pst, xml_bytes, space);
  Result<std::string> blob = summary.SerializePaged(page_bytes);
  if (!blob.ok()) return blob.status();
  if (Status written = WriteStoreFile(path, blob.value()); !written.ok()) {
    return written;
  }
  return OpenStore(path, pool_bytes);
}

/// Parses --tenants=name=rate:burst:weight,... into policy overrides.
bool ParseTenantSpec(const std::string& spec,
                     serve::TenantPolicy* policy) {
  for (const std::string& entry : StrSplit(spec, ',')) {
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) return false;
    const std::string name = entry.substr(0, eq);
    const std::vector<std::string> parts =
        StrSplit(entry.substr(eq + 1), ':');
    if (parts.empty() || parts.size() > 3) return false;
    serve::TenantQuota quota;
    char* end = nullptr;
    quota.rate = std::strtod(parts[0].c_str(), &end);
    if (end == parts[0].c_str() || *end != '\0' || quota.rate < 0) {
      return false;
    }
    if (parts.size() > 1) {
      quota.burst = std::strtod(parts[1].c_str(), &end);
      if (end == parts[1].c_str() || *end != '\0' || quota.burst < 1) {
        return false;
      }
    }
    if (parts.size() > 2) {
      quota.weight = std::strtod(parts[2].c_str(), &end);
      if (end == parts[2].c_str() || *end != '\0' || quota.weight <= 0) {
        return false;
      }
    }
    policy->overrides[name] = quota;
  }
  return true;
}

/// Parses one --datasets entry "id:bytes". Returns false on bad input.
bool ParseDatasetEntry(const std::string& entry, std::string* id,
                       size_t* bytes) {
  const size_t colon = entry.find(':');
  if (colon == std::string::npos || colon == 0) return false;
  *id = entry.substr(0, colon);
  char* end = nullptr;
  const unsigned long long value =
      std::strtoull(entry.c_str() + colon + 1, &end, 10);
  if (end == entry.c_str() + colon + 1 || *end != '\0' || value == 0) {
    return false;
  }
  *bytes = static_cast<size_t>(value);
  return true;
}

/// Many idle connections cost one fd each; run at the hard fd limit so
/// "a few thousand idle clients" is a non-event, not an EMFILE storm.
void RaiseFdLimit() {
  rlimit nofile{};
  if (getrlimit(RLIMIT_NOFILE, &nofile) == 0 &&
      nofile.rlim_cur < nofile.rlim_max) {
    nofile.rlim_cur = nofile.rlim_max;
    (void)setrlimit(RLIMIT_NOFILE, &nofile);  // best effort
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  util::FlagParser flags("twig_serve", kUsage);
  flags.Size("port", &options.port);
  flags.String("port-file", &options.port_file);
  flags.String("xml", &options.xml_path);
  flags.Size("bytes", &options.bytes);
  flags.Double("space", &options.space);
  flags.Size("workers", &options.workers);
  flags.Size("conns", &options.conns);
  flags.Size("queue", &options.queue);
  flags.Size("deadline-ms", &options.deadline_ms);
  flags.Size("cache-entries", &options.cache_entries);
  flags.Size("cache-shards", &options.cache_shards);
  flags.Size("recorder-entries", &options.recorder_entries);
  flags.Size("slow-us", &options.slow_us);
  flags.Size("accuracy-sample", &options.accuracy_sample);
  flags.String("failpoints", &options.failpoints);
  flags.Size("failpoint-seed", &options.failpoint_seed);
  flags.String("store", &options.store_path);
  flags.String("store-out", &options.store_out);
  flags.Double("buffer-mb", &options.buffer_mb);
  flags.Size("page-bytes", &options.page_bytes);
  flags.String("datasets", &options.datasets);
  flags.String("tenants", &options.tenants);
  if (int code = flags.Parse(argc, argv); code >= 0) return code;
  if (options.port > 65535 || options.space <= 0 || options.bytes == 0) {
    std::fprintf(stderr,
                 "twig_serve: --port must fit a TCP port, --bytes and "
                 "--space must be > 0\n");
    return 2;
  }
  if (!options.store_path.empty() &&
      (!options.xml_path.empty() || !options.store_out.empty())) {
    std::fprintf(stderr,
                 "twig_serve: --store excludes --xml and --store-out "
                 "(the store already is the summary)\n");
    return 2;
  }
  if (options.buffer_mb <= 0 ||
      !storage::ValidPageSize(
          static_cast<uint32_t>(options.page_bytes))) {
    std::fprintf(stderr,
                 "twig_serve: --buffer-mb must be > 0 and --page-bytes a "
                 "power of two in [%zu, %zu]\n",
                 static_cast<size_t>(storage::kMinPageBytes),
                 static_cast<size_t>(storage::kMaxPageBytes));
    return 2;
  }
  if (options.failpoint_seed != 0) {
    util::FailpointRegistry::Get().Seed(options.failpoint_seed);
  }
  if (!options.failpoints.empty()) {
    if (Status status = util::FailpointRegistry::Get().ConfigureList(
            options.failpoints);
        !status.ok()) {
      std::fprintf(stderr, "twig_serve: --failpoints: %s\n",
                   status.ToString().c_str());
      return 2;
    }
  }

  RaiseFdLimit();
  const size_t pool_bytes =
      static_cast<size_t>(options.buffer_mb * 1024.0 * 1024.0);

  serve::DatasetCatalog datasets;
  serve::SnapshotCatalog& catalog = *datasets.Create(serve::kDefaultDataset);
  serve::TcpOptions topt;
  topt.port = static_cast<uint16_t>(options.port);
  topt.num_connection_threads = options.conns;

  // Three serving modes: a paged TWCST03 store (--store, no document
  // parse at all), a document summarized to a store and served paged
  // (--store-out), or the classic fully in-memory path.
  std::shared_ptr<const tree::Tree> data;
  size_t xml_bytes = 0;
  std::string source;
  if (!options.store_path.empty()) {
    source = options.store_path;
    auto opened = OpenStore(options.store_path, pool_bytes);
    if (!opened.ok()) {
      std::fprintf(stderr, "twig_serve: --store: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    catalog.Publish(std::move(opened).value(), source + " (paged)");
    // Swap re-opens the store from disk. A store swapped out from
    // under the server — or unreadable, or corrupt — fails the reopen,
    // and the open error (errno text included) reaches the health verb
    // through the catalog's rebuild listener.
    topt.rebuild_view = [path = options.store_path,
                         pool_bytes](double /*space*/) {
      return OpenStore(path, pool_bytes);
    };
  } else {
    // The data tree and its path suffix tree stay resident so the swap
    // op can rebuild CSTs at other space fractions without re-parsing;
    // the tree is shared into each snapshot for the accuracy sampler.
    data = std::make_shared<const tree::Tree>(LoadOrGenerate(options));
    xml_bytes = xml::XmlByteSize(*data);
    const auto pst = std::make_shared<const suffix::PathSuffixTree>(
        suffix::PathSuffixTree::Build(*data));
    source = options.xml_path.empty() ? "generated dblp"
                                      : options.xml_path;
    topt.rebuild_data = data;
    if (!options.store_out.empty()) {
      auto view = RebuildStore(*data, *pst, xml_bytes, options.space,
                               options.store_out, options.page_bytes,
                               pool_bytes);
      if (!view.ok()) {
        std::fprintf(stderr, "twig_serve: --store-out: %s\n",
                     view.status().ToString().c_str());
        return 1;
      }
      catalog.Publish(std::move(view).value(),
                      source + " -> " + options.store_out + " @ " +
                          std::to_string(options.space),
                      /*build_seconds=*/0, data);
      topt.rebuild_view = [data, pst, xml_bytes,
                           default_space = options.space,
                           path = options.store_out,
                           page_bytes = options.page_bytes,
                           pool_bytes](double space) {
        return RebuildStore(*data, *pst, xml_bytes,
                            space > 0 ? space : default_space, path,
                            page_bytes, pool_bytes);
      };
    } else {
      catalog.Publish(BuildSummary(*data, *pst, xml_bytes, options.space),
                      source + " @ " + std::to_string(options.space),
                      /*build_seconds=*/0, data);
      topt.rebuild_view =
          InMemoryRebuild(data, pst, xml_bytes, options.space);
    }
  }

  // Extra datasets: independent generated corpora, each with its own
  // snapshot lineage and rebuild hook, addressable over the wire via
  // the "dataset" field and swappable without touching the others.
  if (!options.datasets.empty()) {
    for (const std::string& entry : StrSplit(options.datasets, ',')) {
      if (entry.empty()) continue;
      std::string id;
      size_t bytes = 0;
      if (!ParseDatasetEntry(entry, &id, &bytes) ||
          id == serve::kDefaultDataset) {
        std::fprintf(stderr,
                     "twig_serve: --datasets entries must be id:bytes "
                     "with a non-default id (got '%s')\n",
                     entry.c_str());
        return 2;
      }
      data::DblpOptions gen;
      gen.target_bytes = bytes;
      gen.seed = std::hash<std::string>{}(id);
      auto extra =
          std::make_shared<const tree::Tree>(data::GenerateDblp(gen));
      const size_t extra_bytes = xml::XmlByteSize(*extra);
      const auto extra_pst = std::make_shared<const suffix::PathSuffixTree>(
          suffix::PathSuffixTree::Build(*extra));
      serve::SnapshotCatalog* lineage = datasets.Create(id);
      lineage->Publish(
          BuildSummary(*extra, *extra_pst, extra_bytes, options.space),
          "generated dblp '" + id + "' @ " +
              std::to_string(options.space),
          /*build_seconds=*/0, extra);
      serve::RebuildSource& rebuild = topt.dataset_rebuilds[id];
      rebuild.rebuild_data = extra;
      rebuild.rebuild_view =
          InMemoryRebuild(extra, extra_pst, extra_bytes, options.space);
      std::printf("twig_serve: dataset '%s' | data %zu nodes, %s | v%llu\n",
                  id.c_str(), extra->size(),
                  HumanBytes(extra_bytes).c_str(),
                  static_cast<unsigned long long>(lineage->version()));
    }
  }

  serve::ServiceOptions sopt;
  sopt.num_workers = options.workers;
  sopt.queue_capacity = options.queue;
  sopt.default_deadline = std::chrono::milliseconds(options.deadline_ms);
  sopt.cache_entries = options.cache_entries;
  sopt.cache_shards = options.cache_shards;
  sopt.recorder_entries = options.recorder_entries;
  sopt.slow_threshold = std::chrono::microseconds(options.slow_us);
  sopt.accuracy_sample_every =
      static_cast<uint32_t>(options.accuracy_sample);
  if (!options.tenants.empty() &&
      !ParseTenantSpec(options.tenants, &sopt.tenants)) {
    std::fprintf(stderr,
                 "twig_serve: --tenants entries must be "
                 "name=rate[:burst[:weight]] (rate >= 0, burst >= 1, "
                 "weight > 0)\n");
    return 2;
  }
  serve::EstimateService service(&datasets, sopt);

  serve::TcpFrontEnd front_end(&datasets, &service, topt);
  if (Status status = front_end.Start(); !status.ok()) {
    std::fprintf(stderr, "twig_serve: %s\n", status.ToString().c_str());
    return 1;
  }

  if (!options.port_file.empty()) {
    std::ofstream out(options.port_file);
    out << front_end.port() << "\n";
    if (!out) {
      std::fprintf(stderr, "twig_serve: cannot write %s\n",
                   options.port_file.c_str());
      front_end.Stop();
      return 1;
    }
  }
  if (data != nullptr) {
    std::printf("twig_serve: %s | data %zu nodes, %s | snapshot v%llu | "
                "listening on 127.0.0.1:%u\n",
                source.c_str(), data->size(),
                HumanBytes(xml_bytes).c_str(),
                static_cast<unsigned long long>(catalog.version()),
                front_end.port());
  } else {
    std::printf("twig_serve: %s | paged store, buffer %.3f MiB | "
                "snapshot v%llu | listening on 127.0.0.1:%u\n",
                source.c_str(), options.buffer_mb,
                static_cast<unsigned long long>(catalog.version()),
                front_end.port());
  }
  std::fflush(stdout);

  front_end.WaitForShutdown();
  service.Shutdown(/*drain=*/true);
  std::printf("twig_serve: stopped\n");
  return 0;
}
