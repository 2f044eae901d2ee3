# The spaden CLI must refuse to run under an environment variable it cannot
# honour — an unknown SPADEN_* name, or an on/off knob set to anything but
# "", "0" or "1" — with a non-zero exit status and an error naming the
# variable, never a run that silently ignores or misreads it.
#
#   cmake -DCLI=<path to spaden> -DSETTING=<NAME=value> -P cli_rejects_env.cmake
string(REGEX REPLACE "=.*" "" name "${SETTING}")
execute_process(COMMAND ${CMAKE_COMMAND} -E env ${SETTING}
                        ${CLI} spmv cant --scale 0.01 --threads 1 --method csr
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "'${SETTING}' was accepted:\n${out}")
endif()
string(FIND "${err}" "${name}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "'${SETTING}': expected an error naming ${name}, got:\n${err}")
endif()
