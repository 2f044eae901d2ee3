# The spaden CLI must reject a flag it does not know by name: a non-zero
# exit status and an error "unknown option '<flag>'", never a run that
# silently ignores it.
#
#   cmake -DCLI=<path to spaden> -DFLAG=<--flag> -P cli_rejects_unknown_option.cmake
execute_process(COMMAND ${CLI} spmv cant --scale 0.01 --threads 1 --method csr ${FLAG} out.json
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "'${FLAG}' was accepted:\n${out}")
endif()
string(FIND "${err}" "unknown option '${FLAG}'" at)
if(at EQUAL -1)
  message(FATAL_ERROR "'${FLAG}': expected \"unknown option '${FLAG}'\", got:\n${err}")
endif()
