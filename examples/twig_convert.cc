// twig_convert: inspects and re-pages serialized CSTs in the TWCST03
// store format (DESIGN.md §15).
//
//   ./twig_convert --in=store.twcst03 --info   # meta page only, no output
//   ./twig_convert --in=a.twcst03 --out=b.twcst03 --page-bytes=4096
//
// Re-paging decodes the whole store (Cst::Deserialize) and writes it
// again at --page-bytes; it is lossless, and at the input's own page
// size it reproduces the input byte for byte.

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

#include "cst/cst.h"
#include "cst/paged_cst.h"
#include "storage/page.h"
#include "util/flags.h"
#include "util/strings.h"

namespace {

using namespace twig;

struct Options {
  std::string in_path;
  std::string out_path;
  size_t page_bytes = storage::kDefaultPageBytes;
  bool info = false;
};

constexpr char kUsage[] =
    "usage: twig_convert --in=FILE [--out=FILE] [--page-bytes=N] [--info]\n"
    "  --in=FILE        TWCST03 store to read\n"
    "  --out=FILE       where to write the re-paged store\n"
    "  --page-bytes=N   page size of the output (default 65536)\n"
    "  --info           print the input's summary stats from its meta\n"
    "                   page and exit (no --out needed)\n";

/// Prints a store's stats; maps the file and reads only the pages that
/// PagedCst::Open reads (the meta page and the label strings).
int PrintInfo(const std::string& path) {
  auto paged = cst::PagedCst::OpenFile(path);
  if (!paged.ok()) {
    std::fprintf(stderr, "twig_convert: %s\n",
                 paged.status().ToString().c_str());
    return 1;
  }
  const cst::PagedCst& view = *paged.value();
  std::printf("%s: TWCST03 (paged, %s pages)\n", path.c_str(),
              HumanBytes(view.buffer().page_size()).c_str());
  std::printf("  nodes       %zu\n", view.node_count());
  std::printf("  signatures  %zu x %zu hashes\n", view.signature_count(),
              view.signature_length());
  std::printf("  labels      %zu\n", view.labels().size());
  std::printf("  data nodes  %llu\n",
              static_cast<unsigned long long>(view.data_node_count()));
  std::printf("  size        %s\n", HumanBytes(view.size_bytes()).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  util::FlagParser flags("twig_convert", kUsage);
  flags.String("in", &options.in_path);
  flags.String("out", &options.out_path);
  flags.Size("page-bytes", &options.page_bytes);
  flags.Bool("info", &options.info);
  if (int code = flags.Parse(argc, argv); code >= 0) return code;
  if (options.in_path.empty()) {
    std::fprintf(stderr, "twig_convert: --in is required\n%s", kUsage);
    return 2;
  }
  if (options.info) return PrintInfo(options.in_path);
  if (options.out_path.empty()) {
    std::fprintf(stderr, "twig_convert: --out is required (or --info)\n");
    return 2;
  }

  std::ifstream in(options.in_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "twig_convert: cannot open %s\n",
                 options.in_path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string bytes = std::move(buffer).str();

  Result<cst::Cst> memory = cst::Cst::Deserialize(bytes);
  if (!memory.ok()) {
    std::fprintf(stderr, "twig_convert: %s: %s\n", options.in_path.c_str(),
                 memory.status().ToString().c_str());
    return 1;
  }
  Result<std::string> paged = memory.value().SerializePaged(options.page_bytes);
  if (!paged.ok()) {
    std::fprintf(stderr, "twig_convert: %s\n",
                 paged.status().ToString().c_str());
    return 1;
  }

  std::ofstream out(options.out_path, std::ios::binary | std::ios::trunc);
  out.write(paged.value().data(),
            static_cast<std::streamsize>(paged.value().size()));
  out.flush();
  if (!out) {
    std::fprintf(stderr, "twig_convert: cannot write %s\n",
                 options.out_path.c_str());
    return 1;
  }
  std::printf("%s (%s) -> %s (%s at %zu-byte pages)\n",
              options.in_path.c_str(), HumanBytes(bytes.size()).c_str(),
              options.out_path.c_str(),
              HumanBytes(paged.value().size()).c_str(), options.page_bytes);
  return 0;
}
