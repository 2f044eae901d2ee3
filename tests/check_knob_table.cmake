# README's "Simulator knobs" table must list exactly the SPADEN_* environment
# variables that src/ and tools/ read (through std::getenv or env_flag): a
# knob nothing documents, or a row for a knob nothing reads, fails.
#
#   cmake -DROOT=<repository root> -P check_knob_table.cmake
file(GLOB_RECURSE sources ${ROOT}/src/*.cpp ${ROOT}/src/*.hpp ${ROOT}/tools/*.cpp)
set(read)
foreach(path ${sources})
  file(READ ${path} text)
  string(REGEX MATCHALL "(getenv|env_flag)\\(\"SPADEN_[A-Z0-9_]+\"" hits "${text}")
  foreach(hit ${hits})
    string(REGEX REPLACE ".*\"(SPADEN_[A-Z0-9_]+)\"" "\\1" name "${hit}")
    list(APPEND read ${name})
  endforeach()
endforeach()

file(READ ${ROOT}/README.md readme)
string(FIND "${readme}" "### Simulator knobs" begin)
if(begin EQUAL -1)
  message(FATAL_ERROR "README.md has no '### Simulator knobs' section")
endif()
string(SUBSTRING "${readme}" ${begin} -1 section)
string(FIND "${section}" "\n## " end)
string(SUBSTRING "${section}" 0 ${end} section)
string(REGEX MATCHALL "\\| `SPADEN_[A-Z0-9_]+` \\|" cells "${section}")
set(documented)
foreach(cell ${cells})
  string(REGEX REPLACE ".*`(SPADEN_[A-Z0-9_]+)`.*" "\\1" name "${cell}")
  list(APPEND documented ${name})
endforeach()

list(REMOVE_DUPLICATES read)
list(REMOVE_DUPLICATES documented)
set(missing ${read})
list(REMOVE_ITEM missing ${documented})
set(stale ${documented})
list(REMOVE_ITEM stale ${read})
if(missing OR stale)
  message(FATAL_ERROR "README knob table out of date. Read but not documented: "
                      "[${missing}]; documented but never read: [${stale}]")
endif()
list(LENGTH read count)
message(STATUS "${count} SPADEN_* knobs, all documented")
