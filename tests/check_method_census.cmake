# Every SpMV method must be measured: each enumerator of `enum class Method`
# in src/kernels/kernel.hpp has to be named as `Method::<X>` in some
# bench/*.cpp. A method no bench row or figure runs fails (DESIGN.md, "What
# stays in the library").
#
#   cmake -DROOT=<repository root> -P check_method_census.cmake
file(READ ${ROOT}/src/kernels/kernel.hpp header)
string(REGEX MATCH "enum class Method {[^}]*}" body "${header}")
if(NOT body)
  message(FATAL_ERROR "src/kernels/kernel.hpp has no 'enum class Method'")
endif()
string(REGEX REPLACE "//[^\n]*" "" body "${body}")
string(REGEX MATCHALL "[A-Za-z_][A-Za-z0-9_]*" names "${body}")
list(REMOVE_ITEM names enum class Method)

file(GLOB benches ${ROOT}/bench/*.cpp)
set(bench_text)
foreach(path ${benches})
  file(READ ${path} text)
  string(APPEND bench_text "${text}")
endforeach()

set(unmeasured)
foreach(name ${names})
  string(REGEX MATCH "Method::${name}[^A-Za-z0-9_]" hit "${bench_text}")
  if(NOT hit)
    list(APPEND unmeasured ${name})
  endif()
endforeach()
if(unmeasured)
  message(FATAL_ERROR "Methods no bench/*.cpp names as Method::<X>: [${unmeasured}]")
endif()
list(LENGTH names count)
message(STATUS "${count} SpMV methods, all measured by a bench")
