#include "tables.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::string table_path(const std::string& dir, const std::string& family,
                       int level) {
  return dir + "/" + family + "_L" + std::to_string(level) + ".json";
}

PinnedTable load_pinned_table(const std::string& dir,
                              const std::string& family, int level) {
  const std::string path = table_path(dir, family, level);
  std::ifstream in(path);
  if (!in) throw std::runtime_error("pinned table not found: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  const pbmg::Json doc = pbmg::Json::parse(text.str());
  PinnedTable table;
  table.config = pbmg::tune::TunedConfig::from_json(doc.at("config"));
  if (doc.at("family").as_string() != family ||
      table.config.op_family != family ||
      table.config.max_level() < level) {
    throw std::runtime_error("pinned table " + path +
                             " does not match family/level");
  }
  table.provenance = pbmg::Json::object();
  for (const auto& [key, value] : doc.as_object()) {
    if (key != "config") table.provenance.set(key, value);
  }
  return table;
}

}  // namespace perfbench
