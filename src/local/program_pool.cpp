#include "local/program_pool.hpp"

#include <stdexcept>

namespace dmm::local {

void ProgramPool::clear() {
  for (auto it = items_.rbegin(); it != items_.rend(); ++it) (*it)->~NodeProgram();
  items_.clear();
  arena_.reset();
}

void ProgramSource::build(std::size_t count, ProgramPool& pool) const {
  if (!fill_) throw std::logic_error("ProgramSource: empty source");
  const std::size_t before = pool.size();
  fill_(count, pool);
  if (pool.size() - before < count) {
    throw std::logic_error("ProgramSource: fill constructed too few programs");
  }
}

}  // namespace dmm::local
