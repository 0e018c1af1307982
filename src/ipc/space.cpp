#include "ipc/space.h"

namespace mach {

ipc_space::ipc_space(const char* name) : own_lock_(name) {}

ipc_space::ipc_space(simple_lock_data_t* external)
    : own_lock_("ipc-space-unused"), external_lock_(external) {}

ipc_space::~ipc_space() {
  // The table's references die with the map; nothing holds our lock now.
}

port_name_t ipc_space::insert(ref_ptr<port> p) {
  simple_lock(lk());
  port_name_t name = next_name_++;
  table_.emplace(name, std::move(p));
  simple_unlock(lk());
  return name;
}

ref_ptr<port> ipc_space::lookup(port_name_t name) {
  simple_lock(lk());
  auto it = table_.find(name);
  ref_ptr<port> r = it != table_.end() ? it->second : ref_ptr<port>{};
  simple_unlock(lk());
  return r;
}

bool ipc_space::remove(port_name_t name) {
  ref_ptr<port> doomed;  // released after the lock is dropped
  simple_lock(lk());
  auto it = table_.find(name);
  bool found = it != table_.end();
  if (found) {
    doomed = std::move(it->second);
    table_.erase(it);
  }
  simple_unlock(lk());
  return found;
}

std::size_t ipc_space::size() const {
  simple_lock(lk());
  std::size_t n = table_.size();
  simple_unlock(lk());
  return n;
}

}  // namespace mach
