# The SPADEN_* environment knobs have one list, kEnvNames in
# src/common/parse.hpp. This check fails when
#  * README's "Simulator knobs" table does not name exactly that list;
#  * src/ or tools/ reads (through std::getenv or env_flag) a SPADEN_* name
#    the list lacks;
#  * a listed knob is named nowhere under tests/, bench/, benchmark/ or
#    .github/ — a knob no test, CI step, bench or benchmark workload sets
#    does not stay in the library (DESIGN.md, "What stays in the library").
#
#   cmake -DROOT=<repository root> -P check_knob_table.cmake
file(READ ${ROOT}/src/common/parse.hpp header)
string(REGEX MATCH "kEnvNames = {[^}]*}" body "${header}")
if(NOT body)
  message(FATAL_ERROR "src/common/parse.hpp has no 'kEnvNames = {...}' list")
endif()
string(REGEX MATCHALL "\"SPADEN_[A-Z0-9_]+\"" quoted "${body}")
set(listed)
foreach(q ${quoted})
  string(REPLACE "\"" "" name "${q}")
  list(APPEND listed ${name})
endforeach()

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

file(GLOB_RECURSE users
     ${ROOT}/tests/*.cpp ${ROOT}/tests/*.hpp ${ROOT}/tests/*.cmake ${ROOT}/tests/*.txt
     ${ROOT}/bench/*.cpp ${ROOT}/bench/*.hpp
     ${ROOT}/benchmark/*.cpp ${ROOT}/benchmark/*.hpp ${ROOT}/benchmark/*.py
     ${ROOT}/.github/*.yml)
set(user_text)
foreach(path ${users})
  file(READ ${path} text)
  string(APPEND user_text "${text}\n")
endforeach()

list(REMOVE_DUPLICATES read)
list(REMOVE_DUPLICATES documented)
set(unlisted ${read})
list(REMOVE_ITEM unlisted ${listed})
set(missing ${listed})
list(REMOVE_ITEM missing ${documented})
set(stale ${documented})
list(REMOVE_ITEM stale ${listed})
set(unset)
foreach(name ${listed})
  string(REGEX MATCH "${name}[^A-Z0-9_]" hit "${user_text}")
  if(NOT hit)
    list(APPEND unset ${name})
  endif()
endforeach()
if(unlisted OR missing OR stale OR unset)
  message(FATAL_ERROR "SPADEN_* knobs out of date. Read by src/ or tools/ but not in "
                      "kEnvNames: [${unlisted}]; in kEnvNames but not in README's table: "
                      "[${missing}]; in README's table but not in kEnvNames: [${stale}]; "
                      "in kEnvNames but named by no test, CI step, bench or benchmark: "
                      "[${unset}]")
endif()
list(LENGTH listed count)
message(STATUS "${count} SPADEN_* knobs, all documented and all set somewhere")
